package sqlengine

import "testing"

// Hooks for the external replay tests (replay_test.go), which import
// packages that themselves import this one.

// WriteDifferentialStmts returns the statements of the UPDATE/DELETE
// scripts of TestPlannerWriteDifferential, in order.
func WriteDifferentialStmts() []string {
	var out []string
	for _, tc := range writeDifferentialCases {
		out = append(out, tc.stmts...)
	}
	return out
}

// LoadTestDB creates and fills newTestDB's "app" database on eng.
func LoadTestDB(t *testing.T, eng *Engine) *Session { return loadTestDB(t, eng) }
