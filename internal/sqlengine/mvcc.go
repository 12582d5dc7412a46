package sqlengine

// This file is the MVCC core: rows carry (begin, end) commit-version stamps
// and a newest-first chain of superseded images, stamped by the per-engine
// commit counter. Reads resolve visibility against a read version — the
// latest commit for autocommit statements, the BEGIN-time version for open
// transactions (snapshot isolation) — and Engine.Snapshot() is a
// non-quiescent versioned read over the same chains. The undo log remains
// the write-side abort path: rollback physically restores heap/index state
// and pops the chain entries the transaction pushed.
//
// Version stamps are assigned at commit time through stamp closures: each
// write statement appends a closure taking the final commit version, and
// commit runs them all with commitV+1 before publishing it. Until then the
// affected images hold provisionalVersion and the owning session in txn,
// which routes every other reader to the chain (or, for a pending DELETE of
// a committed image, to the still-visible current image).

// provisionalVersion marks a begin/end stamp belonging to an open
// transaction: numerically above every real commit version, so committed-
// image visibility tests fail naturally, while the row's txn field routes
// the owning session to its own writes.
const provisionalVersion = ^uint64(0)

// gcEvery is how many finalized commits pass between version-chain GC
// sweeps. Sweeps are cheap (pointer walks), but per-commit sweeping would
// dominate small transactions.
const gcEvery = 64

// rowVersion is one superseded committed image in a row's version chain,
// newest first. end is the commit version of the write that superseded it
// (0 while that write is still provisional).
type rowVersion struct {
	vals       []Value
	begin, end uint64
	prev       *rowVersion
}

// visibleTo resolves the image of r that a reader sees at readV, or nil if
// none. s is the reading session (nil for engine-level readers such as
// Snapshot): a session always sees its own provisional writes and never its
// own pending deletes.
func (r *Row) visibleTo(s *Session, readV uint64) []Value {
	if r.txn != nil && r.txn == s {
		if r.end != 0 {
			return nil // own pending delete
		}
		return r.vals // own insert/update
	}
	if r.txn == nil {
		if r.begin <= readV && (r.end == 0 || r.end > readV) {
			return r.vals
		}
	} else if r.end != 0 && r.begin <= readV {
		// Foreign pending DELETE of a committed image: the delete has not
		// committed, so the image stays visible to everyone else.
		return r.vals
	}
	for v := r.prev; v != nil; v = v.prev {
		if v.begin <= readV && (v.end == 0 || v.end > readV) {
			return v.vals
		}
	}
	return nil
}

// scanVisible collects the row images a reader at readV sees: the live heap
// resolved through version chains plus graveyard rows whose delete is not
// yet visible. Indexes are bypassed — they cover only latest images.
func (t *Table) scanVisible(s *Session, readV uint64) [][]Value {
	out := make([][]Value, 0, len(t.rows))
	for _, r := range t.rows {
		if v := r.visibleTo(s, readV); v != nil {
			out = append(out, v)
		}
	}
	for _, r := range t.graveyard {
		if v := r.visibleTo(s, readV); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// relink restores a graveyard row to the live heap — the rollback path of a
// provisional DELETE. The transaction's later inserts were already undone
// (undo runs in reverse), so re-adding the old index entries cannot
// conflict.
func (t *Table) relink(r *Row) {
	if t.HasPK() {
		t.pk[t.pkKey(r.vals)] = r
	}
	for _, ix := range t.indexes {
		_ = ix.add(r)
	}
	t.rows = append(t.rows, r)
	for i, x := range t.graveyard {
		if x == r {
			t.graveyard = append(t.graveyard[:i], t.graveyard[i+1:]...)
			return
		}
	}
}

// pruneChain truncates r's version chain at the first image dead to every
// reader at or above minActive; everything older is dead too (each older
// image's end bounds the next newer one's begin). Returns the number of
// versions freed.
func pruneChain(r *Row, minActive uint64) int {
	n := 0
	at := &r.prev
	for v := r.prev; v != nil; v = v.prev {
		if v.end != 0 && v.end <= minActive {
			for d := v; d != nil; d = d.prev {
				n++
			}
			*at = nil
			break
		}
		at = &v.prev
	}
	return n
}

// gc reclaims MVCC storage invisible to every reader at or above minActive:
// chain versions behind live and buried rows, and graveyard rows whose
// committed delete no active reader can still observe.
func (t *Table) gc(minActive uint64) (versions, rows int) {
	for _, r := range t.rows {
		versions += pruneChain(r, minActive)
	}
	kept := t.graveyard[:0]
	for _, r := range t.graveyard {
		// end is never 0 in the graveyard: committed deletes carry their
		// commit version, pending ones provisionalVersion (> minActive).
		if r.txn == nil && r.end <= minActive {
			rows++
			for v := r.prev; v != nil; v = v.prev {
				versions++
			}
			continue
		}
		versions += pruneChain(r, minActive)
		kept = append(kept, r)
	}
	for i := len(kept); i < len(t.graveyard); i++ {
		t.graveyard[i] = nil // release dropped rows for Go's GC
	}
	t.graveyard = kept
	return versions, rows
}

// readViewFor returns the session's read version and whether SELECT must
// resolve visibility through version chains. The fast path — scanning the
// live heap and its indexes as-is — is exact when the reader is at the
// engine's latest commit version and every outstanding provisional write
// belongs to the reader itself; that covers the whole autocommit workload,
// so MVCC costs nothing on the hot read path.
func (e *Engine) readViewFor(s *Session) (uint64, bool) {
	readV := e.commitV
	if s.inTxn {
		readV = s.readV
	}
	if readV == e.commitV && e.provisional == s.provisional {
		return readV, false
	}
	return readV, true
}

// addStamp defers an MVCC version mark to commit time; inside a transaction
// it also counts toward the engine's provisional-write total that forces
// concurrent readers onto the chain-resolving scan.
func (s *Session) addStamp(fn func(cv uint64)) {
	s.stamps = append(s.stamps, fn)
	if s.inTxn {
		s.provisional++
		s.eng.provisional++
	}
}

// finalizeStampsLocked assigns the next commit version to every provisional
// mark this session holds and publishes it as the engine's latest. Called
// under the engine lock — right after an autocommit write executes, or at
// COMMIT for an explicit transaction.
func (s *Session) finalizeStampsLocked() {
	if len(s.stamps) > 0 {
		cv := s.eng.commitV + 1
		for _, f := range s.stamps {
			f(cv)
		}
		s.eng.commitV = cv
		// Keep the backing array for the session's next write.
		clear(s.stamps)
		s.stamps = s.stamps[:0]
		s.eng.maybeGCLocked()
	}
	s.eng.provisional -= s.provisional
	s.provisional = 0
}

// dropTxnLocked removes s from the engine's open-transaction set.
func (e *Engine) dropTxnLocked(s *Session) {
	for i, t := range e.txns {
		if t == s {
			e.txns = append(e.txns[:i], e.txns[i+1:]...)
			return
		}
	}
}

func (e *Engine) maybeGCLocked() {
	e.sinceGC++
	if e.sinceGC < gcEvery {
		return
	}
	e.sinceGC = 0
	e.gcLocked()
}

// gcLocked prunes chain versions and graveyard rows invisible to every
// active reader. Pinned snapshot handles and open transactions hold the
// horizon down; with none, everything below the latest version goes.
func (e *Engine) gcLocked() {
	minActive := e.commitV
	for _, v := range e.pins {
		if v < minActive {
			minActive = v
		}
	}
	for _, t := range e.txns {
		if t.readV < minActive {
			minActive = t.readV
		}
	}
	e.gcRuns++
	for _, dbKey := range sortedKeys(e.dbs) {
		db := e.dbs[dbKey]
		for _, tblKey := range sortedKeys(db.tables) {
			nv, nr := db.tables[tblKey].gc(minActive)
			e.gcVersions += uint64(nv)
			e.gcRows += uint64(nr)
		}
	}
}

// CommitVersion returns the engine's current commit version.
func (e *Engine) CommitVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.commitV
}

// AdvanceVersion raises the commit version to at least v. The replication
// apply path calls it with each applied binlog sequence, so replica version
// stamps track the master's commit order — including across failover, where
// the promoted slave keeps counting from the old master's sequence.
func (e *Engine) AdvanceVersion(v uint64) {
	e.mu.Lock()
	if v > e.commitV {
		e.commitV = v
	}
	e.mu.Unlock()
}

// GCStats reports version-chain garbage collection counters: completed
// sweeps, pruned chain versions, and reclaimed deleted rows.
func (e *Engine) GCStats() (runs, versions, rows uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gcRuns, e.gcVersions, e.gcRows
}

// ReadVersion returns the session's snapshot read version (meaningful while
// an explicit transaction is open).
func (s *Session) ReadVersion() uint64 { return s.readV }
