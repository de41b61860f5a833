package trust

import (
	"sort"

	"orchestra/internal/core"
)

// leafKey identifies a leaf for value numbering: two syntactically equal
// update accesses share one leaf slot and one extraction per update.
type leafKey struct {
	kind    leafKind
	replace bool
	byName  bool
	name    string
	idx     int
}

// progBuilder accumulates the shared tables while rules are lowered.
type progBuilder struct {
	pr      *program
	schema  *core.Schema
	leafIdx map[leafKey]int32
	litIdx  map[val]int32
}

// compileProgram lowers a rule list (plus delegated dynamic sources) into
// a program. The result is independent of rule order up to priority ties
// and always decision-equivalent to interpreting the rules: the
// differential tests pin this.
func compileProgram(rules []Rule, dyn []dynSource, schema *core.Schema) *program {
	b := &progBuilder{
		pr:      &program{},
		schema:  schema,
		leafIdx: make(map[leafKey]int32),
		litIdx:  make(map[val]int32),
	}
	pr := b.pr
	var origins []core.PeerID // reused across rules
	for i := range rules {
		r := &rules[i]
		if v, ok := foldConst(r.expr); ok {
			// Leaf-free predicate: decided now. True floors every
			// evaluation at the rule's priority; false never fires.
			if v.truthy() && r.Priority > pr.constPrio {
				pr.constPrio = r.Priority
			}
			continue
		}
		if os, ok := originDispatch(r.expr, origins[:0]); ok {
			// origin = 'x' / origin in (...): one map lookup at eval.
			origins = os
			if pr.originPrio == nil {
				// Sized for the remaining rules: resolved delegation
				// policies are mostly origin vouches.
				pr.originPrio = make(map[core.PeerID]int, len(rules)-i)
			}
			for _, o := range origins {
				if r.Priority > pr.originPrio[o] {
					pr.originPrio[o] = r.Priority
				}
			}
			continue
		}
		pr.rules = append(pr.rules, compiledRule{prio: r.Priority, code: b.lower(r.expr, nil)})
	}
	sort.SliceStable(pr.rules, func(i, j int) bool { return pr.rules[i].prio > pr.rules[j].prio })
	pr.dyn = append([]dynSource(nil), dyn...)
	sort.SliceStable(pr.dyn, func(i, j int) bool { return pr.dyn[i].cap > pr.dyn[j].cap })

	for i := range pr.rules {
		if d := stackDepth(pr.rules[i].code); d > pr.maxStack {
			pr.maxStack = d
		}
	}
	pr.originOnly = analyzeOriginOnly(pr)
	return pr
}

// analyzeOriginOnly reports whether every decision the program makes
// depends only on u.Origin. The dispatch table and constant floor are
// origin-only by construction; general rules qualify when their only
// leaves are origin reads, dynamic sources when they declare it.
func analyzeOriginOnly(pr *program) bool {
	for _, r := range pr.rules {
		for _, in := range r.code {
			if in.op == opLeaf && pr.leaves[in.a].kind != leafOrigin {
				return false
			}
		}
	}
	for _, d := range pr.dyn {
		if ot, ok := d.t.(core.OriginTrust); !ok || !ot.OriginOnly() {
			return false
		}
	}
	return true
}

// foldConst evaluates a leaf-free subtree at compile time. The language
// is pure, so evaluating against an empty context is exact.
func foldConst(e expr) (val, bool) {
	if hasLeaves(e) {
		return val{}, false
	}
	return e.eval(&evalCtx{}), true
}

func hasLeaves(e expr) bool {
	switch n := e.(type) {
	case *litExpr:
		return false
	case *fieldExpr, *attrExpr:
		return true
	case *cmpExpr:
		return hasLeaves(n.l) || hasLeaves(n.r)
	case *inExpr:
		return hasLeaves(n.l)
	case *likeExpr:
		return hasLeaves(n.l)
	case *notExpr:
		return hasLeaves(n.e)
	case *andExpr:
		return hasLeaves(n.l) || hasLeaves(n.r)
	case *orExpr:
		return hasLeaves(n.l) || hasLeaves(n.r)
	}
	return true // unknown node: treat as dynamic
}

// originDispatch recognizes predicates decidable from the origin alone
// with equality semantics: `origin = '<peer>'` (either side) and
// `origin in (...)`. Non-string members can never equal the (string)
// origin and are dropped; a rule with no string members never fires.
// The origins are appended to buf.
func originDispatch(e expr, buf []core.PeerID) ([]core.PeerID, bool) {
	switch n := e.(type) {
	case *cmpExpr:
		if n.op != tokEq {
			return nil, false
		}
		var lit *litExpr
		if f, ok := n.l.(*fieldExpr); ok && f.f == fieldOrigin {
			lit, _ = n.r.(*litExpr)
		} else if f, ok := n.r.(*fieldExpr); ok && f.f == fieldOrigin {
			lit, _ = n.l.(*litExpr)
		}
		if lit == nil || lit.v.kind != 's' {
			return nil, false
		}
		return append(buf, core.PeerID(lit.v.s)), true
	case *inExpr:
		f, ok := n.l.(*fieldExpr)
		if !ok || f.f != fieldOrigin {
			return nil, false
		}
		for _, o := range n.opts {
			if o.kind == 's' {
				buf = append(buf, core.PeerID(o.s))
			}
		}
		return buf, true
	}
	return nil, false
}

// lower emits postfix code for a subtree, folding leaf-free subtrees
// into literals.
func (b *progBuilder) lower(e expr, code []instr) []instr {
	if v, ok := foldConst(e); ok {
		return append(code, instr{op: opLit, a: b.lit(v)})
	}
	switch n := e.(type) {
	case *fieldExpr:
		k := leafKey{kind: leafOrigin}
		switch n.f {
		case fieldRel:
			k.kind = leafRel
		case fieldOp:
			k.kind = leafOp
		}
		return append(code, instr{op: opLeaf, a: b.leaf(k)})
	case *attrExpr:
		k := leafKey{kind: leafAttr, replace: n.replace, byName: n.byName, name: n.name, idx: n.idx}
		return append(code, instr{op: opLeaf, a: b.leaf(k)})
	case *cmpExpr:
		code = b.lower(n.l, code)
		code = b.lower(n.r, code)
		op := map[tokenKind]opcode{tokEq: opEq, tokNe: opNe, tokLt: opLt, tokLe: opLe, tokGt: opGt, tokGe: opGe}[n.op]
		return append(code, instr{op: op})
	case *inExpr:
		code = b.lower(n.l, code)
		b.pr.inSets = append(b.pr.inSets, n.opts)
		return append(code, instr{op: opIn, a: int32(len(b.pr.inSets) - 1)})
	case *likeExpr:
		code = b.lower(n.l, code)
		b.pr.patterns = append(b.pr.patterns, n.pattern)
		return append(code, instr{op: opLike, a: int32(len(b.pr.patterns) - 1)})
	case *notExpr:
		code = b.lower(n.e, code)
		return append(code, instr{op: opNot})
	case *andExpr:
		code = b.lower(n.l, code)
		code = b.lower(n.r, code)
		return append(code, instr{op: opAnd})
	case *orExpr:
		code = b.lower(n.l, code)
		code = b.lower(n.r, code)
		return append(code, instr{op: opOr})
	}
	// Unknown node (cannot happen for parser output): evaluate via the
	// interpreter per update by falling back to a never-true literal is
	// wrong, so panic loudly in development.
	panic("trust: unknown expression node in compiler")
}

func (b *progBuilder) leaf(k leafKey) int32 {
	if i, ok := b.leafIdx[k]; ok {
		return i
	}
	lf := leaf{kind: k.kind, replace: k.replace, byName: k.byName, name: k.name, idx: k.idx}
	if k.byName && b.schema != nil {
		// Resolve attr('name') once per relation at compile time; the
		// per-eval cost becomes one map lookup.
		lf.relIdx = make(map[string]int)
		for _, rn := range b.schema.Names() {
			if rel, ok := b.schema.Relation(rn); ok {
				lf.relIdx[rn] = rel.AttrIndex(k.name)
			}
		}
	}
	i := int32(len(b.pr.leaves))
	b.pr.leaves = append(b.pr.leaves, lf)
	b.leafIdx[k] = i
	return i
}

func (b *progBuilder) lit(v val) int32 {
	if i, ok := b.litIdx[v]; ok {
		return i
	}
	i := int32(len(b.pr.lits))
	b.pr.lits = append(b.pr.lits, v)
	b.litIdx[v] = i
	return i
}

// stackDepth simulates the operand stack to size the scratch slice.
func stackDepth(code []instr) int {
	depth, max := 0, 0
	for _, in := range code {
		switch in.op {
		case opLeaf, opLit:
			depth++
		case opNot, opIn, opLike:
			// pop 1 push 1
		default:
			depth--
		}
		if depth > max {
			max = depth
		}
	}
	return max
}
