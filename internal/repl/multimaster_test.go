package repl

import (
	"fmt"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

func mmRig(t *testing.T, seed int64, nNodes int) (*sim.Env, *MultiMaster) {
	t.Helper()
	env := sim.NewEnv(seed)
	lat := cloud.DefaultLatencies()
	lat.JitterSigma = 0
	c := cloud.New(env, cloud.Config{Network: cloud.NewNetwork(env, lat)})
	place := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	var servers []*server.DBServer
	for i := 0; i < nNodes; i++ {
		srv := server.New(env, fmt.Sprintf("node%d", i), c.Launch(fmt.Sprintf("node%d", i), cloud.Small, place), server.DefaultCostModel())
		sess := srv.Session("")
		for _, sql := range []string{
			"CREATE DATABASE app",
			"CREATE TABLE app.kv (k BIGINT PRIMARY KEY, v VARCHAR(40))",
		} {
			if _, err := srv.ExecFree(sess, sql); err != nil {
				t.Fatal(err)
			}
		}
		servers = append(servers, srv)
	}
	return env, NewMultiMaster(env, c.Network(), servers, place)
}

func TestMultiMasterAllNodesAcceptWrites(t *testing.T) {
	env, mm := mmRig(t, 1, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Go("client", func(p *sim.Proc) {
			if err := mm.Node(i).ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (?, ?)",
				sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("from-node-%d", i))); err != nil {
				t.Errorf("write on node %d: %v", i, err)
			}
		})
	}
	env.RunUntil(time.Minute)
	for i, n := range mm.Nodes() {
		set, err := n.Srv.Session("app").Query("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if set.Rows[0][0].Int() != 3 {
			t.Fatalf("node %d has %v rows, want all 3 writes", i, set.Rows[0][0])
		}
		if n.ApplyErrors() != 0 {
			t.Fatalf("node %d apply errors: %d", i, n.ApplyErrors())
		}
	}
	env.Stop()
	env.Shutdown()
}

func TestMultiMasterConflictsResolveIdentically(t *testing.T) {
	// Two nodes write the same key "concurrently": the total order decides
	// the winner and every node must agree on it.
	env, mm := mmRig(t, 2, 3)
	for i := 0; i < 2; i++ {
		i := i
		env.Go("client", func(p *sim.Proc) {
			mm.Node(i).ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (1, ?)",
				sqlengine.NewString(fmt.Sprintf("writer-%d", i)))
		})
	}
	env.RunUntil(time.Minute)
	var winner string
	for i, n := range mm.Nodes() {
		set, err := n.Srv.Session("app").Query("SELECT v FROM kv WHERE k = 1")
		if err != nil || len(set.Rows) != 1 {
			t.Fatalf("node %d: %v %v", i, set, err)
		}
		v := set.Rows[0][0].Str()
		if winner == "" {
			winner = v
		} else if v != winner {
			t.Fatalf("nodes disagree on conflict winner: %q vs %q", v, winner)
		}
	}
	// Exactly one of the two conflicting inserts succeeded; the other got
	// a duplicate-key error on every node consistently.
	totalErrs := 0
	for _, n := range mm.Nodes() {
		totalErrs += n.ApplyErrors()
	}
	if totalErrs != len(mm.Nodes()) {
		t.Fatalf("apply errors = %d, want exactly one failed statement per node", totalErrs)
	}
	env.Stop()
	env.Shutdown()
}

func TestMultiMasterReadYourWrites(t *testing.T) {
	env, mm := mmRig(t, 3, 2)
	env.Go("client", func(p *sim.Proc) {
		n := mm.Node(1)
		if err := n.ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (42, 'mine')"); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// ExecWrite returns only after local apply: the next local read
		// must see it.
		set, err := n.ExecRead(p, "app", "SELECT v FROM kv WHERE k = 42")
		if err != nil || len(set.Rows) != 1 {
			t.Errorf("read-your-writes violated: %v %v", set, err)
		}
	})
	env.RunUntil(time.Minute)
	env.Stop()
	env.Shutdown()
}

func TestMultiMasterWriteLatencyIncludesOrderingRoundTrip(t *testing.T) {
	// A node in eu-west writing through a us-west sequencer pays at least
	// origin→sequencer + sequencer→origin (2 × 173 ms).
	env := sim.NewEnv(4)
	lat := cloud.DefaultLatencies()
	lat.JitterSigma = 0
	c := cloud.New(env, cloud.Config{Network: cloud.NewNetwork(env, lat)})
	us := cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	eu := cloud.Placement{Region: cloud.EUWest1, Zone: "a"}
	var servers []*server.DBServer
	for i, pl := range []cloud.Placement{us, eu} {
		srv := server.New(env, fmt.Sprintf("node%d", i), c.Launch(fmt.Sprintf("node%d", i), cloud.Small, pl), server.DefaultCostModel())
		sess := srv.Session("")
		srv.ExecFree(sess, "CREATE DATABASE app")
		srv.ExecFree(sess, "CREATE TABLE app.kv (k BIGINT PRIMARY KEY)")
		servers = append(servers, srv)
	}
	mm := NewMultiMaster(env, c.Network(), servers, us)
	var took sim.Time
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		if err := mm.Node(1).ExecWrite(p, "app", "INSERT INTO kv (k) VALUES (1)"); err != nil {
			t.Errorf("write: %v", err)
		}
		took = p.Now() - start
	})
	env.RunUntil(time.Minute)
	if took < 346*time.Millisecond {
		t.Fatalf("cross-region multi-master write took %v, below the ordering round trip", took)
	}
	env.Stop()
	env.Shutdown()
}

func TestMultiMasterWriteAmplification(t *testing.T) {
	// Every node applies every write: after W writes, each node's engine
	// must have executed W write statements.
	env, mm := mmRig(t, 5, 3)
	const writes = 10
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			mm.Node(i%3).ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (?, 'x')",
				sqlengine.NewInt(int64(i)))
		}
	})
	env.RunUntil(time.Minute)
	for i, n := range mm.Nodes() {
		set, _ := n.Srv.Session("app").Query("SELECT COUNT(*) FROM kv")
		if set.Rows[0][0].Int() != writes {
			t.Fatalf("node %d applied %v of %d writes", i, set.Rows[0][0], writes)
		}
	}
	env.Stop()
	env.Shutdown()
}

// Every node applies every replicated text. Apply lifts literals out of the
// text, so the parse cache grows by one entry per statement shape, not per
// distinct text. (The client spells its templates the way the binlog
// renders them, so the writer's prepared text and the lifted template are
// one entry.)
func TestMultiMasterApplyCachesOneEntryPerShape(t *testing.T) {
	env, mm := mmRig(t, 3, 2)
	base := make([]int, len(mm.Nodes()))
	for i, n := range mm.Nodes() {
		base[i] = n.Srv.Eng.ParseCacheLen()
	}
	const writes = 20
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			node := mm.Node(i % 2)
			if err := node.ExecWrite(p, "app", "INSERT INTO kv (k, v) VALUES (?, ?)",
				sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
			if err := node.ExecWrite(p, "app", "UPDATE kv SET v = ? WHERE (k = ?)",
				sqlengine.NewString(fmt.Sprintf("w%d", i)), sqlengine.NewInt(int64(i))); err != nil {
				t.Errorf("update %d: %v", i, err)
			}
		}
	})
	env.RunUntil(time.Minute)
	for i, n := range mm.Nodes() {
		if n.ApplyErrors() != 0 || n.AppliedSeq() != 2*writes {
			t.Fatalf("node %d applied %d with %d errors", i, n.AppliedSeq(), n.ApplyErrors())
		}
		if got := n.Srv.Eng.ParseCacheLen() - base[i]; got != 2 {
			t.Errorf("node %d: parse cache grew by %d entries over %d writes of 2 shapes", i, got, 2*writes)
		}
		set, err := n.Srv.Session("app").Query("SELECT COUNT(*) FROM kv WHERE v LIKE 'w%'")
		if err != nil {
			t.Fatal(err)
		}
		if set.Rows[0][0].Int() != writes {
			t.Fatalf("node %d has %v updated rows, want %d", i, set.Rows[0][0], writes)
		}
	}
	env.Stop()
	env.Shutdown()
}
