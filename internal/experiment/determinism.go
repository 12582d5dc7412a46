package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// InjectNondeterminism, when set, salts every determinism-check encoding
// with a draw from the global math/rand stream — exactly the class of bug
// the checker exists to catch (state outside the run's seeded Env leaking
// into results). The bench CLI's -determinism-inject flag sets it to prove,
// end to end, that the checker fails when it should; nothing else may
// enable it.
var InjectNondeterminism bool

// CheckDeterminism executes run twice and byte-compares the canonical
// indented-JSON encodings of the two results. Any difference — a reordered
// map, a wall-clock timestamp, global rand state, host-scheduling leakage —
// fails with the first divergent line. The run function must construct
// everything it randomizes from its own fixed seed.
func CheckDeterminism(name string, run func() (any, error)) error {
	first, err := runEncoded(run)
	if err != nil {
		return fmt.Errorf("%s: first run: %w", name, err)
	}
	second, err := runEncoded(run)
	if err != nil {
		return fmt.Errorf("%s: second run: %w", name, err)
	}
	if bytes.Equal(first, second) {
		return nil
	}
	return fmt.Errorf("%s: two runs with one seed produced different results\n%s",
		name, firstDivergence(first, second))
}

func runEncoded(run func() (any, error)) ([]byte, error) {
	v, err := run()
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	if InjectNondeterminism {
		//cloudrepl:allow-simrand deliberate self-test entropy: -determinism-inject must make the check fail
		b = append(b, fmt.Sprintf("\ninjected-entropy: %d", rand.Int63())...)
	}
	return b, nil
}

// firstDivergence locates the first line where the two encodings disagree,
// so a failure points at the drifting field instead of dumping two blobs.
func firstDivergence(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first divergence at JSON line %d:\n  run 1: %s\n  run 2: %s",
				i+1, strings.TrimSpace(al[i]), strings.TrimSpace(bl[i]))
		}
	}
	return fmt.Sprintf("encodings agree on the first %d lines but differ in length: %d vs %d lines",
		n, len(al), len(bl))
}

// pipelineArm is the A-PIPELINE determinism arm: the ablation's BENCH
// JSON. With opts.Short the grid is trimmed to the corner points — two
// variants, 1 and 4 slaves, two workloads — which exercises every pipeline
// stage (group commit, batching, parallel apply) in a fraction of the time;
// otherwise it is the full A-PIPELINE sweep.
func pipelineArm(opts SweepOpts) (any, error) {
	var r PipelineResult
	var err error
	if opts.Short {
		v := PipelineVariants()
		r, err = ablationPipelineGrid(opts, []PipelineVariant{v[0], v[len(v)-1]}, []int{1, 4}, []int{50, 150})
	} else {
		r, err = AblationPipeline(opts)
	}
	if err != nil {
		return nil, err
	}
	return pipelineJSON(r), nil
}

// tracePayload is what the A-TRACE arm compares: the Chrome trace export
// together with the metrics snapshot.
type tracePayload struct {
	Trace   json.RawMessage    `json:"trace"`
	Metrics map[string]float64 `json:"metrics"`
}

// traceArm is the A-TRACE determinism arm: the traced pipeline point. Span
// IDs, virtual timestamps and registry values must all be identical run to
// run, or tracing has leaked nondeterminism into the simulation.
func traceArm(opts SweepOpts) (any, error) {
	r, err := TraceRun(opts)
	if err != nil {
		return nil, err
	}
	return tracePayload{r.TraceJSON, r.Metrics}, nil
}
