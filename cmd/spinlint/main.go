// Command spinlint runs this repository's custom static analyzers
// (internal/lint): result-store access boundaries, error-context
// requirements in internal/core, cancellation polls before MPP fan-out,
// and panic containment of spawned goroutines.
//
// It speaks the `go vet -vettool=` protocol, so the usual invocation is
//
//	go build -o bin/spinlint ./cmd/spinlint
//	go vet -vettool=bin/spinlint ./...
//
// (also wired up as `make lint`).
package main

import (
	"os"

	"dbspinner/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
