// Package scenario is the sandboxed adversary/scenario DSL: a small,
// deterministic expression language that compiles to the engine's
// adversary interface (and to activation predicates for protocol
// variants) so a campaign spec can carry its own schedule logic without a
// Go change behind the registry.
//
// A script is zero or more function definitions followed by one result
// expression:
//
//	def unseen(x) = x != lastwriter;
//	unseen(max(candidates)) ? max(candidates) : min(candidates)
//
// Scripts are pure functions of their inputs — for writer choice,
// (round, candidates, board-derived accessors); for activation
// predicates, (id, n, degree, boardlen) — with a fixed stdlib
// (arithmetic, comparisons, min/max/argmax, candidate indexing, modular
// arithmetic) and no I/O, randomness or time, so every run is exactly
// reproducible and coordinate-derived seeds stay meaningful. The
// pipeline is lexer → parser → typed AST → bounded evaluator: parse and
// type errors carry byte-precise positions (and "did you mean"
// suggestions for stdlib identifiers), and evaluation is capped by hard
// step and recursion budgets per Choose call, so a runaway script fails
// the run like an exhausted max_steps budget instead of hanging it.
//
// Because the script source rides inside the campaign spec (the
// "script:<expr>" adversary name or the spec's inline "script" field),
// it participates in the normalized spec hash: stored results remain
// content-addressed, and changing one token of a script changes the
// hash.
package scenario

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// Budgets. Compilation rejects sources over MaxSourceBytes, scripts with
// more than MaxNodes AST nodes, and nesting beyond MaxParseDepth; each
// evaluation (one Choose call, one activation test) spends at most
// MaxEvalSteps node visits and MaxCallDepth nested user-function calls.
// Values are 64-bit integers and booleans only, so the step budget also
// bounds memory.
const (
	MaxSourceBytes = 4096
	MaxNodes       = 2048
	MaxParseDepth  = 64
	MaxEvalSteps   = 100_000
	MaxCallDepth   = 100
)

// Mode selects the variable environment a script compiles against.
type Mode int

const (
	// ModeChoose scripts pick each round's writer: they see round,
	// boardlen, lastwriter and the candidates list, and must evaluate to
	// an int that is one of the candidates.
	ModeChoose Mode = iota
	// ModeActivate scripts gate a node's activation: they see id, n,
	// degree and boardlen, and must evaluate to a bool.
	ModeActivate
)

// Error is a compile- or eval-time script failure carrying the byte
// offset it occurred at, so a bad script is fixable from the message
// alone ("script:1:17: unknown identifier ...").
type Error struct {
	Src string // the script source
	Pos int    // byte offset into Src (clamped to len(Src))
	Msg string
}

func (e *Error) Error() string {
	line, col := 1, 1
	for i := 0; i < e.Pos && i < len(e.Src); i++ {
		if e.Src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("script:%d:%d: %s", line, col, e.Msg)
}

// errAt builds a positioned Error.
func errAt(src string, pos int, format string, args ...any) *Error {
	if pos > len(src) {
		pos = len(src)
	}
	return &Error{Src: src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Program is a compiled script: the typed AST plus the mode it was
// checked against. Programs are immutable and safe for concurrent use;
// each evaluation carries its own budget.
type Program struct {
	src  string
	mode Mode
	defs []*defNode
	root node
	// metrics counts the program's evaluator steps; nil records nothing.
	metrics *telemetry.ScenarioMetrics
}

// Source returns the original script text — the string that participates
// in the spec hash.
func (p *Program) Source() string { return p.src }

// Mode returns the environment the program was compiled against.
func (p *Program) Mode() Mode { return p.mode }

// String returns the canonical printed form of the program: a fixpoint
// of parse∘print (printing the result of parsing it reproduces it byte
// for byte).
func (p *Program) String() string {
	var sb strings.Builder
	for _, d := range p.defs {
		sb.WriteString("def ")
		sb.WriteString(d.name)
		sb.WriteByte('(')
		for i, param := range d.params {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(param)
		}
		sb.WriteString(") = ")
		printNode(&sb, d.body)
		sb.WriteString("; ")
	}
	printNode(&sb, p.root)
	return sb.String()
}

// Compile runs the full pipeline — lex, parse, type check — for the
// given mode. The returned error is a *Error with a position for any
// script defect. m, when non-nil, counts the attempt and the program's
// evaluator steps: the wb_scenario_* group of the run that compiles it.
func Compile(src string, mode Mode, m *telemetry.ScenarioMetrics) (*Program, error) {
	m.CompileDone()
	if len(src) > MaxSourceBytes {
		return nil, errAt(src, MaxSourceBytes, "script is %d bytes; the limit is %d", len(src), MaxSourceBytes)
	}
	if strings.TrimSpace(src) == "" {
		return nil, errAt(src, 0, "empty script")
	}
	p := &parser{src: src}
	p.toks, p.lexErr = lex(src)
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	defs, root, err := p.parseScript()
	if err != nil {
		return nil, err
	}
	prog := &Program{src: src, mode: mode, defs: defs, root: root, metrics: m}
	if err := check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// CompileChoose compiles a writer-choice script (the "script:<expr>"
// adversary): the result type must be int. Nothing is counted.
func CompileChoose(src string) (*Program, error) { return Compile(src, ModeChoose, nil) }

// CompileActivate compiles an activation predicate (the "gate:"
// protocol wrapper): the result type must be bool. Nothing is counted.
func CompileActivate(src string) (*Program, error) { return Compile(src, ModeActivate, nil) }
