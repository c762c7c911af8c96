package core

type Context struct{}

type Step interface {
	Run(ctx *Context) error
	Explain() string
}

type MaterializeStep struct{}

func (s *MaterializeStep) Run(ctx *Context) error { return nil }
func (s *MaterializeStep) Explain() string        { return "materialize" }

type LoopStep struct{ BodyStart int }

func (s *LoopStep) Run(ctx *Context) error { return nil }
func (s *LoopStep) Explain() string        { return "loop" }

// ForgottenStep implements Step but the verifier fixture's dispatch
// switch does not handle it.
type ForgottenStep struct{}

func (s *ForgottenStep) Run(ctx *Context) error { return nil }
func (s *ForgottenStep) Explain() string        { return "forgotten" }

// Program has a Run and an Explain, but its Run is not shaped
// Run(*Context) error: it is not a step and needs no dispatch case.
type Program struct{}

func (p *Program) Run(a, b int) (int, error) { return 0, nil }
func (p *Program) Explain() string           { return "program" }
