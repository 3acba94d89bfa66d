package scenario

// eval.go: the bounded evaluator. Every node visit charges one step
// against MaxEvalSteps and every user-function call one level against
// MaxCallDepth, so any script — including a recursive one — terminates
// within a fixed budget; exhaustion is an ordinary positioned error, the
// same failure class as division by zero or an out-of-range index.
// Integer arithmetic is two's-complement 64-bit and wraps silently
// (matching Go), except /, % and the mod/powmod builtins, whose domain
// errors fail the evaluation.

import "repro/internal/numtheory"

// value is one runtime value. The checker guarantees kinds line up, and
// the only list value is the candidates slice held by the context, so a
// list value carries no payload.
type value struct {
	i      int64
	b      bool
	isList bool
}

type frame struct {
	names []string
	vals  []int64
}

type evalCtx struct {
	prog       *Program
	steps      int
	globals    map[string]int64
	candidates []int
	frames     []frame
}

// EvalChoose runs a writer-choice program for one round and returns the
// chosen identifier. boardLen is the number of messages written so far
// and lastWriter the previous round's chosen writer (-1 before the
// first write). The candidates slice is read, never retained. The
// returned error is a *Error for any in-script failure.
func (p *Program) EvalChoose(round int, candidates []int, boardLen, lastWriter int) (int, error) {
	if p.mode != ModeChoose {
		return 0, errAt(p.src, 0, "program was compiled as an activation predicate, not a writer-choice script")
	}
	ctx := &evalCtx{
		prog: p,
		globals: map[string]int64{
			"round":      int64(round),
			"boardlen":   int64(boardLen),
			"lastwriter": int64(lastWriter),
		},
		candidates: candidates,
	}
	v, err := ctx.eval(p.root)
	p.metrics.EvalSteps(int64(ctx.steps))
	if err != nil {
		return 0, err
	}
	return int(v.i), nil
}

// EvalActivate runs an activation predicate for one node: its id, the
// system size n, its degree, and the board length at the activation
// test. The returned error is a *Error for any in-script failure.
func (p *Program) EvalActivate(id, n, degree, boardLen int) (bool, error) {
	if p.mode != ModeActivate {
		return false, errAt(p.src, 0, "program was compiled as a writer-choice script, not an activation predicate")
	}
	ctx := &evalCtx{
		prog: p,
		globals: map[string]int64{
			"id":       int64(id),
			"n":        int64(n),
			"degree":   int64(degree),
			"boardlen": int64(boardLen),
		},
	}
	v, err := ctx.eval(p.root)
	p.metrics.EvalSteps(int64(ctx.steps))
	if err != nil {
		return false, err
	}
	return v.b, nil
}

func (c *evalCtx) fail(pos int, format string, args ...any) (value, *Error) {
	return value{}, errAt(c.prog.src, pos, format, args...)
}

func (c *evalCtx) eval(n node) (value, *Error) {
	c.steps++
	if c.steps > MaxEvalSteps {
		return c.fail(n.pos(), "evaluation budget of %d steps exhausted", MaxEvalSteps)
	}
	switch n := n.(type) {
	case *intLit:
		return value{i: n.val}, nil
	case *boolLit:
		return value{b: n.val}, nil
	case *varRef:
		// A function body sees only its own parameters plus the globals;
		// caller frames are invisible (lexical scoping, enforced by the
		// checker too).
		if len(c.frames) > 0 {
			f := &c.frames[len(c.frames)-1]
			for i, name := range f.names {
				if name == n.name {
					return value{i: f.vals[i]}, nil
				}
			}
		}
		if n.name == "candidates" {
			return value{isList: true}, nil
		}
		return value{i: c.globals[n.name]}, nil
	case *unaryNode:
		v, err := c.eval(n.x)
		if err != nil {
			return value{}, err
		}
		if n.op == "-" {
			return value{i: -v.i}, nil
		}
		return value{b: !v.b}, nil
	case *binaryNode:
		return c.evalBinary(n)
	case *ternaryNode:
		cond, err := c.eval(n.cond)
		if err != nil {
			return value{}, err
		}
		if cond.b {
			return c.eval(n.then)
		}
		return c.eval(n.else_)
	case *indexNode:
		if _, err := c.eval(n.x); err != nil {
			return value{}, err
		}
		iv, err := c.eval(n.i)
		if err != nil {
			return value{}, err
		}
		if iv.i < 0 || iv.i >= int64(len(c.candidates)) {
			return c.fail(n.p, "index %d out of range for %d candidates", iv.i, len(c.candidates))
		}
		return value{i: int64(c.candidates[iv.i])}, nil
	case *callNode:
		return c.evalCall(n)
	default:
		return c.fail(n.pos(), "internal: unknown node")
	}
}

func (c *evalCtx) evalBinary(n *binaryNode) (value, *Error) {
	// and/or short-circuit; everything else is strict.
	if n.op == "and" || n.op == "or" {
		x, err := c.eval(n.x)
		if err != nil {
			return value{}, err
		}
		if (n.op == "and" && !x.b) || (n.op == "or" && x.b) {
			return x, nil
		}
		return c.eval(n.y)
	}
	x, err := c.eval(n.x)
	if err != nil {
		return value{}, err
	}
	y, err := c.eval(n.y)
	if err != nil {
		return value{}, err
	}
	switch n.op {
	case "+":
		return value{i: x.i + y.i}, nil
	case "-":
		return value{i: x.i - y.i}, nil
	case "*":
		return value{i: x.i * y.i}, nil
	case "/":
		if y.i == 0 {
			return c.fail(n.p, "division by zero")
		}
		return value{i: x.i / y.i}, nil
	case "%":
		if y.i == 0 {
			return c.fail(n.p, "division by zero in %%")
		}
		return value{i: x.i % y.i}, nil
	case "==":
		return value{b: x.i == y.i && x.b == y.b}, nil
	case "!=":
		return value{b: x.i != y.i || x.b != y.b}, nil
	case "<":
		return value{b: x.i < y.i}, nil
	case "<=":
		return value{b: x.i <= y.i}, nil
	case ">":
		return value{b: x.i > y.i}, nil
	default: // >=
		return value{b: x.i >= y.i}, nil
	}
}

func (c *evalCtx) evalCall(n *callNode) (value, *Error) {
	if d, ok := c.findDef(n.name); ok {
		if len(c.frames) >= MaxCallDepth {
			return c.fail(n.p, "call depth exceeds %d (runaway recursion in %s)", MaxCallDepth, n.name)
		}
		vals := make([]int64, len(n.args))
		for i, a := range n.args {
			v, err := c.eval(a)
			if err != nil {
				return value{}, err
			}
			vals[i] = v.i
		}
		c.frames = append(c.frames, frame{names: d.params, vals: vals})
		v, err := c.eval(d.body)
		c.frames = c.frames[:len(c.frames)-1]
		return v, err
	}
	// Builtins. Evaluate arguments strictly, left to right.
	args := make([]value, len(n.args))
	for i, a := range n.args {
		v, err := c.eval(a)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	switch n.name {
	case "len":
		return value{i: int64(len(c.candidates))}, nil
	case "min", "max":
		if len(args) == 1 && args[0].isList {
			if len(c.candidates) == 0 {
				return c.fail(n.p, "%s of an empty candidates list", n.name)
			}
			// Candidates are ascending, so the extremes are the ends.
			if n.name == "min" {
				return value{i: int64(c.candidates[0])}, nil
			}
			return value{i: int64(c.candidates[len(c.candidates)-1])}, nil
		}
		best := args[0].i
		for _, a := range args[1:] {
			if (n.name == "min" && a.i < best) || (n.name == "max" && a.i > best) {
				best = a.i
			}
		}
		return value{i: best}, nil
	case "argmin":
		if len(c.candidates) == 0 {
			return c.fail(n.p, "argmin of an empty candidates list")
		}
		return value{i: 0}, nil // candidates ascend: first is smallest
	case "argmax":
		if len(c.candidates) == 0 {
			return c.fail(n.p, "argmax of an empty candidates list")
		}
		return value{i: int64(len(c.candidates) - 1)}, nil
	case "pick":
		if len(c.candidates) == 0 {
			return c.fail(n.p, "pick from an empty candidates list")
		}
		r, err := numtheory.Mod(args[0].i, int64(len(c.candidates)))
		if err != nil {
			return c.fail(n.p, "pick: %v", err)
		}
		return value{i: int64(c.candidates[r])}, nil
	case "prefer":
		if len(c.candidates) == 0 {
			return c.fail(n.p, "prefer with an empty candidates list")
		}
		for _, a := range args {
			for _, cand := range c.candidates {
				if int64(cand) == a.i {
					return value{i: a.i}, nil
				}
			}
		}
		return value{i: int64(c.candidates[0])}, nil
	case "has":
		for _, cand := range c.candidates {
			if int64(cand) == args[0].i {
				return value{b: true}, nil
			}
		}
		return value{b: false}, nil
	case "mod":
		r, err := numtheory.Mod(args[0].i, args[1].i)
		if err != nil {
			return c.fail(n.p, "mod: modulus must be positive, got %d", args[1].i)
		}
		return value{i: r}, nil
	default: // powmod
		r, err := numtheory.PowMod(args[0].i, args[1].i, args[2].i)
		if err != nil {
			return c.fail(n.p, "powmod: %v", err)
		}
		return value{i: r}, nil
	}
}

func (c *evalCtx) findDef(name string) (*defNode, bool) {
	for _, d := range c.prog.defs {
		if d.name == name {
			return d, true
		}
	}
	return nil, false
}
