package engine

import (
	"fmt"

	"repro/internal/core"
)

// machine is the transition kernel every traversal shares: the protocol
// under its effective model, the node views, the per-message bit budget and
// the round cap. Run, RunAll and RunAllMemo differ only in how they choose
// writers and keep configurations; each model rule is written here once.
// It is a plain value, kept on the caller's stack.
type machine struct {
	p         core.Protocol
	views     []core.NodeView
	n         int
	model     core.Model
	budget    int // MaxMessageBits(n)
	maxRounds int
}

// newMachine resolves opts against p: opts.Model overrides the protocol's
// declared model and MaxRounds 0 means 4n+16 (every round that makes
// progress writes once, so this is generous).
func newMachine(p core.Protocol, views []core.NodeView, opts Options) machine {
	n := len(views) - 1
	m := machine{p: p, views: views, n: n, model: p.Model(), budget: p.MaxMessageBits(n), maxRounds: opts.MaxRounds}
	if opts.Model != nil {
		m.model = *opts.Model
	}
	if m.maxRounds == 0 {
		m.maxRounds = 4*n + 16
	}
	return m
}

// settle runs the activation phase on st in place: every awake node
// evaluates its predicate against the board. In asynchronous models a node
// freezes its message the moment it activates; in simultaneous models every
// node must activate on the empty board.
func (m *machine) settle(st *state, board *core.Board) error {
	for v := 1; v <= m.n; v++ {
		if st.state[v] != awake {
			continue
		}
		if m.p.Activate(m.views[v], board) {
			st.state[v] = active
			if m.model.Asynchronous() {
				msg, err := m.compose(v, board)
				if err != nil {
					return err
				}
				st.pending[v] = msg
			}
		} else if m.model.Simultaneous() && board.Empty() {
			return fmt.Errorf("engine: %s protocol %q did not activate node %d on the empty board",
				m.model, m.p.Name(), v)
		}
	}
	return nil
}

// message returns what writer v appends: the message it froze at
// activation in asynchronous models, one composed on the current board
// otherwise.
func (m *machine) message(st *state, board *core.Board, v int) (core.Message, error) {
	if m.model.Asynchronous() {
		return st.pending[v], nil
	}
	return m.compose(v, board)
}

func (m *machine) compose(v int, board *core.Board) (core.Message, error) {
	msg := m.p.Compose(m.views[v], board)
	if msg.Bits > m.budget {
		return msg, fmt.Errorf("engine: node %d message %d bits exceeds budget %d", v, msg.Bits, m.budget)
	}
	return msg, nil
}

// classify is the rule for a configuration with no candidates: Deadlock
// while some node never activated, otherwise Success once decode accepts
// the final board and Failed, with decode's error, when it rejects it.
// decode is Output for callers that keep the output's value (outcome), and
// renders only its key for those that keep the key (outcomeKey).
func (m *machine) classify(st *state, decode func() error) (core.Status, error) {
	if st.written < m.n {
		return core.Deadlock, nil
	}
	if err := decode(); err != nil {
		return core.Failed, err
	}
	return core.Success, nil
}

// outcome classifies a configuration with no candidates into res, whose
// Board is the final board, with the decoded output on Success.
func (m *machine) outcome(st *state, res *core.Result) {
	status, err := m.classify(st, func() error {
		out, err := m.p.Output(m.n, res.Board)
		if err == nil {
			res.Output = out
		}
		return err
	})
	res.Status = status
	if err != nil {
		res.Err = fmt.Errorf("engine: output: %w", err)
	}
}

// outcomeKey classifies a configuration with no candidates on its final
// board b as outcome does, and on Success appends to key the text of the
// output: through the protocol's AppendOutput when it has one, which
// builds no output value, and through Output and appendOutputKey
// otherwise.
func (m *machine) outcomeKey(st *state, b *core.Board, key []byte) (core.Status, []byte) {
	status, _ := m.classify(st, func() (err error) {
		if a, ok := m.p.(core.OutputAppender); ok {
			key, err = a.AppendOutput(key, m.n, b)
			return err
		}
		out, err := m.p.Output(m.n, b)
		if err == nil {
			key = appendOutputKey(key, out)
		}
		return err
	})
	return status, key
}

type nodeState uint8

const (
	awake nodeState = iota
	active
	done // message written ("terminated" next round; unobservable)
)

type state struct {
	state   []nodeState
	pending []core.Message
	cand    []int // reusable candidates buffer
	written int
}

func newState(n int) *state {
	return &state{state: make([]nodeState, n+1), pending: make([]core.Message, n+1)}
}

// reset readies the state for a fresh run on n nodes, keeping capacity.
func (s *state) reset(n int) {
	if cap(s.state) <= n {
		s.state = make([]nodeState, n+1)
		s.pending = make([]core.Message, n+1)
	}
	s.state = s.state[:n+1]
	s.pending = s.pending[:n+1]
	for i := range s.state {
		s.state[i] = awake
		s.pending[i] = core.Message{}
	}
	s.written = 0
}

// clone copies the state for a branch of an exhaustive walk; the
// candidates buffer is not shared.
func (s *state) clone() *state {
	return &state{
		state:   append([]nodeState(nil), s.state...),
		pending: append([]core.Message(nil), s.pending...),
		written: s.written,
	}
}

// candidates lists active unwritten nodes ascending. The returned slice is
// the state's own buffer, overwritten by the next call on the same state.
func (s *state) candidates() []int {
	s.cand = s.cand[:0]
	for v := 1; v < len(s.state); v++ {
		if s.state[v] == active {
			s.cand = append(s.cand, v)
		}
	}
	return s.cand
}

func (s *state) markWritten(v int) {
	s.state[v] = done
	s.written++
}
