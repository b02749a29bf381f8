// Package interp implements information extraction (Sec. 3, Algorithm 1
// lines 3–6): preselection of relevant messages, the broadcast join of
// raw messages with translation tuples, the u₁ relevant-byte extraction
// and the u₂ value interpretation, all as one serializable engine stage
// so it distributes row-parallel across executors.
//
// The engine executes the whole stage as one late-materialized fused
// run (see docs/PERFORMANCE.md): the two joins expand each batch of K_b
// rows into (message, translation tuple) index pairs without copying,
// u₁ and u₂ evaluate the tuple's rules, compiled once per distinct rule
// text, and each K_s row (t, sid, v, bid) is built exactly once. The
// projection that drops l and m_info after u₁ therefore costs nothing.
package interp

import (
	"context"
	"fmt"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/trace"
)

// Options tune the extraction plan.
type Options struct {
	// Preselect enables the line-3 preselection semijoin that filters
	// K_b to relevant (b_id, m_id) pairs before joining rules. Ablation
	// A1 switches it off, which forces interpretation of the full
	// catalog followed by a post-filter.
	Preselect bool
	// FullCatalog is U_rel, required when Preselect is false: the plan
	// then interprets every documented signal and filters to the
	// selection afterwards, reproducing what "translating all signal
	// instances in all message instances" costs.
	FullCatalog []rules.Translation
}

// DefaultOptions enable preselection.
func DefaultOptions() Options { return Options{Preselect: true} }

// Plan builds the extraction stage for a U_comb selection: applied to a
// K_b relation it yields the K_s relation (t, sid, v, bid).
//
// Stage layout (all narrow operators, no shuffle needed):
//
//	semijoin (b_id,m_id)∈U_comb   — line 3, K_pre
//	⋈ U_comb on (b_id,m_id)       — line 4, K_join
//	u₁: lrel = slice(l, rel.B)    — line 5, K_join2
//	π drop l, m_info              — the memory-efficiency step
//	u₂: v = rule(lrel)            — line 6, K_s
//	π (t, sid, v, bid)
func Plan(ucomb []rules.Translation, opts Options) ([]engine.OpDesc, error) {
	if len(ucomb) == 0 {
		return nil, fmt.Errorf("interp: empty U_comb")
	}
	joinSet := ucomb
	if !opts.Preselect {
		if len(opts.FullCatalog) == 0 {
			return nil, fmt.Errorf("interp: Preselect=false requires FullCatalog")
		}
		joinSet = opts.FullCatalog
	}

	var ops []engine.OpDesc
	if opts.Preselect {
		// Line 3: σ over (b_id, m_id) as a semijoin with the distinct
		// pair table — the broadcast analogue of the paper's filter
		// pushdown onto the raw trace.
		pairs := rules.PairRelation(ucomb)
		ops = append(ops, engine.BroadcastJoin(pairs,
			[]string{trace.ColBID, trace.ColMID},
			[]string{rules.ColUPairBID, rules.ColUPairMID}))
	}

	// Line 4: K_join = K_pre ⋈ U_comb. One output row per (message
	// instance, matching translation tuple): the fan-out from messages
	// to signals.
	ops = append(ops, engine.BroadcastJoin(rules.ToRelation(joinSet),
		[]string{trace.ColBID, trace.ColMID},
		[]string{rules.ColUBID, rules.ColUMID}))

	// Line 5: u₁ — extract the relevant bytes l_rel per row, then drop
	// the full payload and protocol fields. Keeping only rel.B is what
	// lets the paper store traces raw yet interpret cheaply.
	ops = append(ops,
		engine.EvalRule(trace.ColLRel, relation.KindBytes, rules.ColU1Rule),
		engine.Project(trace.ColT, trace.ColBID, rules.ColUSID, trace.ColLRel, rules.ColU2Rule),
	)

	// Line 6: u₂ — interpret l_rel into the signal value v using the
	// per-row rule carried by the join.
	ops = append(ops,
		engine.EvalRule(trace.ColV, relation.KindNull, rules.ColU2Rule),
		engine.Project(trace.ColT, rules.ColUSID, trace.ColV, trace.ColBID),
	)

	if !opts.Preselect {
		// Post-filter to the requested signals: without preselection
		// everything was interpreted first.
		ops = append(ops, engine.Filter(sidFilterExpr(ucomb)))
	}
	return ops, nil
}

// sidFilterExpr renders "sid=='a' || sid=='b' || ...".
func sidFilterExpr(ucomb []rules.Translation) string {
	seen := map[string]bool{}
	var out string
	for i := range ucomb {
		sid := ucomb[i].SID
		if seen[sid] {
			continue
		}
		seen[sid] = true
		if out != "" {
			out += " || "
		}
		out += fmt.Sprintf("sid == %q", sid)
	}
	return out
}

// Extract runs the extraction plan over a K_b relation on the given
// executor and returns K_s (plus stage statistics).
func Extract(ctx context.Context, exec engine.Executor, kb *relation.Relation, ucomb []rules.Translation, opts Options) (*relation.Relation, engine.Stats, error) {
	ops, err := Plan(ucomb, opts)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return exec.RunStage(ctx, kb, ops)
}
