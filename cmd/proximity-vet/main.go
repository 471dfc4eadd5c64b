// Command proximity-vet runs the repo's static-analysis suite
// (internal/lint, eight analyzers) over the named package patterns and
// exits non-zero on findings. CI runs it next to go vet:
//
//	go run ./cmd/proximity-vet ./...
//
// Flags:
//
//	-analyzers a,b   run only the named analyzers (default: all)
//	-list            print the suite and exit
//
// Findings print as file:line:col: analyzer: message, and only for the
// packages the patterns name. unusedapi and deadfield still count uses
// from every package of the module, so
//
//	go run ./cmd/proximity-vet -analyzers unusedapi ./internal/vec
//
// reports the vec names that nothing in the module uses, and
// -analyzers deadfield the vec fields that nothing reads. Suppress an
// intentional finding with //proximity:allow <analyzer> <reason> on or
// directly above the flagged line; mark zero-alloc functions with
// //proximity:hotpath in their doc comment.
package main

import (
	"flag"
	"fmt"
	"os"

	"proximity/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("proximity-vet", flag.ContinueOnError)
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	module, err := lint.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	findings := lint.Run(pkgs, module, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "proximity-vet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
