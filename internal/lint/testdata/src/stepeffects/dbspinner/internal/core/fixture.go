package core

type Context struct{}

type Step interface {
	Run(ctx *Context) error
	Explain() string
}

type MaterializeStep struct{}

func (s *MaterializeStep) Run(ctx *Context) error { return nil }
func (s *MaterializeStep) Explain() string        { return "materialize" }

type RenameStep struct{}

func (s *RenameStep) Run(ctx *Context) error { return nil }
func (s *RenameStep) Explain() string        { return "rename" }

// ForgottenStep implements Step but the IO dispatch below does not
// handle it.
type ForgottenStep struct{}

func (s *ForgottenStep) Run(ctx *Context) error { return nil }
func (s *ForgottenStep) Explain() string        { return "forgotten" }

// Program has a Run and an Explain, but its Run is not shaped
// Run(*Context) error: it is not a step and needs no dispatch case.
type Program struct{}

func (p *Program) Run(a, b int) (int, error) { return 0, nil }
func (p *Program) Explain() string           { return "program" }

// stepIO is the IO dispatch: a binding type switch over step pointer
// types with a fail-closed default arm.
func stepIO(s Step) bool {
	switch t := s.(type) { // want `step-IO dispatch does not handle core\.Step implementer\(s\) ForgottenStep`
	case *MaterializeStep:
		_ = t
	case *RenameStep:
		_ = t
	default:
		return false
	}
	return true
}

// Helper switches over a step subset without a fail-closed default arm
// are deliberately partial, not the IO dispatch.
func helper(s Step) bool {
	switch s.(type) {
	case *MaterializeStep:
	case *RenameStep:
	}
	return false
}

// Non-binding switches with a default are kind tests (the cost
// estimator's shape), not the IO dispatch: they read no step fields.
func kindTest(s Step) int {
	switch s.(type) {
	case *MaterializeStep, *RenameStep:
		return 1
	default:
		return 0
	}
}

// Switches over non-step types (core walks expression and plan trees
// the same way) are not the IO dispatch either, even with a default
// arm.
type scanNode struct{}
type joinNode struct{}

func walk(n interface{}) int {
	switch n.(type) {
	case *scanNode:
		return 1
	case *joinNode:
		return 2
	default:
		return 0
	}
}
