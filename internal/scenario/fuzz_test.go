package scenario

import "testing"

// fuzzSeeds covers every token kind, both modes' stdlibs, definitions,
// recursion, and the classic malformed shapes.
var fuzzSeeds = []string{
	"min(candidates)",
	"max(candidates)",
	"pick(round)",
	"prefer(3, 1, 2)",
	"has(3) ? max(candidates) : min(candidates)",
	"candidates[mod(round, len(candidates))]",
	"powmod(2, round, 97) % 5",
	"def f(x) = x * 2; f(round) + 1",
	"def fib(k) = k < 2 ? k : fib(k-1) + fib(k-2); prefer(fib(10))",
	"def f(k) = f(k); f(1)",
	"lastwriter == -1 ? max(candidates) : min(candidates)",
	"not true and false or 1 < 2 ? 1 : 2",
	"- - -5",
	"((((((1))))))",
	"id % 2 == 1",
	"degree > n / 2 and boardlen < n",
	"",
	"   ",
	"candiates[0]",
	"1 +",
	"min(",
	"def",
	"def f( = 1; 1",
	"9999999999999999999999",
	"a[b[c[d[e]]]]",
	"1 ? 2 : 3",
	"x",
	"@#$",
	"min(candidates) extra",
}

// FuzzParseScript drives arbitrary source through compilation in both
// modes and asserts the pipeline never panics, every rejection carries a
// non-empty positioned message, and every accepted program satisfies the
// parse→print→parse fixpoint: printing it yields a source that reparses
// to the identical canonical form.
func FuzzParseScript(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, mode := range []Mode{ModeChoose, ModeActivate} {
			prog, err := Compile(src, mode, nil)
			if err != nil {
				if err.Error() == "" {
					t.Error("Compile returned an empty error")
				}
				continue
			}
			printed := prog.String()
			again, err := Compile(printed, mode, nil)
			if err != nil {
				t.Fatalf("canonical form %q (from %q) does not reparse: %v", printed, src, err)
			}
			if again.String() != printed {
				t.Fatalf("print∘parse not a fixpoint for %q:\n first: %s\nsecond: %s", src, printed, again.String())
			}
		}
	})
}

// FuzzEvalScript evaluates every compilable script under both modes'
// entry points and asserts evaluation never panics and always terminates
// within the step budget — the sandbox property the campaign layer's
// Failed-not-hung contract rests on.
func FuzzEvalScript(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, 3, 7)
	}
	f.Fuzz(func(t *testing.T, src string, round, boardLen int) {
		if prog, err := Compile(src, ModeChoose, nil); err == nil {
			candidates := []int{1, 3, 4}
			if _, err := prog.EvalChoose(round, candidates, boardLen, -1); err != nil && err.Error() == "" {
				t.Error("EvalChoose returned an empty error")
			}
			// The engine never calls Choose with no candidates, but the
			// evaluator must still fail cleanly rather than panic.
			if _, err := prog.EvalChoose(round, nil, boardLen, -1); err != nil && err.Error() == "" {
				t.Error("EvalChoose(empty candidates) returned an empty error")
			}
		}
		if prog, err := Compile(src, ModeActivate, nil); err == nil {
			if _, err := prog.EvalActivate(round, 5, 2, boardLen); err != nil && err.Error() == "" {
				t.Error("EvalActivate returned an empty error")
			}
		}
	})
}
