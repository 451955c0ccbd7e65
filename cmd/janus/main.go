// Command janus is the one entry point to the JANUS reproduction. It
// follows the paper's deployment flow (Figure 6): train a commutativity
// specification on representative inputs, inspect what training mined,
// run the §7 evaluation, record and replay production runs, and serve
// transactions to tenants over HTTP.
//
// Usage:
//
//	janus <command> [flags] [arguments]
//
// The commands are listed by `janus help`; `janus <command> -h` lists a
// command's flags. A failing command prints "janus <command>: <error>"
// to standard error and exits 1; a bad command line exits 2. Three exits
// are part of a command's contract: replay exits 1 on a digest mismatch,
// loadgen exits 1 on a lost or duplicated batch, and serve exits 1 on a
// failed drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/workloads"
)

// A command is one subcommand: run parses args (the command line after
// the command's name) and returns nil, a usageError, or a failure.
type command struct {
	name, summary string
	run           func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"train", "train one workload's commutativity specification (§5.1) and print or save it", runTrain},
	{"trace", "print the per-location task sequences training mines, with their §5.2 abstractions", runTrace},
	{"advise", "classify shared locations (§2) and derive the §5.3 relaxations they justify", runAdvise},
	{"bench", "regenerate Tables 5–6 and Figures 9–11, or profile wall-clock runs (-json, -trace)", runBench},
	{"replay", "re-execute a recorded op trace and verify it against its oracle digest", runReplay},
	{"serve", "run the multi-tenant transaction service", runServe},
	{"loadgen", "drive a running service and verify its exactly-once and digest contract", runLoadgen},
	{"benchjson", "fold `go test -bench` output or -json reports into a BENCH_*.json trajectory", runBenchJSON},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns the process's exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(ctx, args[1:], stdout, stderr)
		if err == nil || errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "janus %s: %v\n", c.name, err)
		if errors.As(err, new(usageError)) {
			fmt.Fprintf(stderr, "`janus %s -h` lists its flags.\n", c.name)
			return 2
		}
		return 1
	}
	fmt.Fprintf(stderr, "janus: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: janus <command> [flags] [arguments]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\n`janus <command> -h` lists a command's flags.")
}

// usageError is a command line the command cannot run: exit status 2.
type usageError struct{ error }

// newFlags returns a command's flag set, which prints its usage to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("janus "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs. A malformed flag or value is a usageError,
// which run reports; -h prints the flags and returns flag.ErrHelp.
func parse(fs *flag.FlagSet, args []string) error {
	out := fs.Output()
	fs.SetOutput(io.Discard) // run prints the error once
	err := fs.Parse(args)
	fs.SetOutput(out)
	if errors.Is(err, flag.ErrHelp) {
		fs.Usage()
		return err
	}
	if err != nil {
		return usageError{err}
	}
	return nil
}

// The flags below are shared by more than one command, so each is
// declared and checked in one place.

// workloadFlag declares the required -workload flag; the returned
// function looks the workload up once the flags are parsed.
func workloadFlag(fs *flag.FlagSet) func() (*workloads.Workload, error) {
	name := fs.String("workload", "", "benchmark to run (required): jfilesync, jgrapht1, jgrapht2, pmd or weka")
	return func() (*workloads.Workload, error) {
		if *name == "" {
			return nil, usageError{errors.New("-workload is required")}
		}
		return workloads.ByName(*name)
	}
}

// jsonFlag declares -json: the command's report as machine-readable JSON.
func jsonFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "write the report as JSON")
}

// detector is the -detector flag: seq, the trained sequence detector
// (§5), or ws, the write-set baseline.
type detector struct{ writeSet bool }

func detectorFlag(fs *flag.FlagSet) *detector {
	d := new(detector)
	fs.Var(d, "detector", "conflict detector: seq or ws")
	return d
}

func (d *detector) String() string {
	if d.writeSet {
		return "ws"
	}
	return "seq"
}

func (d *detector) Set(s string) error {
	if s != "seq" && s != "ws" {
		return fmt.Errorf("want seq or ws, got %q", s)
	}
	d.writeSet = s == "ws"
	return nil
}
