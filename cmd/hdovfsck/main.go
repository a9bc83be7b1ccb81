// Command hdovfsck checks saved HDoV database directories: it verifies the
// manifest's self-checksum, the disk image's committed size and CRC, every
// layout pointer, and — for codec-layout databases — every codec unit's
// header and CRC, and reports intact vs damaged. With -repair, damaged
// artifacts and stray temporaries from interrupted saves are moved into a
// quarantine/ subdirectory, and codec-invalid pages are parked in
// quarantine.json so reopened databases fail their reads fast instead of
// decoding garbage — the next save starts clean without destroying
// evidence. For every readable manifest a dynamicscene line reports the
// committed epoch counter, op-log length and delta-chain depth, so an
// interrupted CommitEpoch is visible at a glance (strays with epoch=0
// deltas=0 mean the commit never landed).
//
// Usage:
//
//	hdovfsck DIR...
//	hdovfsck -repair DIR
//	hdovfsck -deep DIR
//
// Exit status: 0 if every directory is intact, 1 if any is damaged, 2 on
// usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dbfile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdovfsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		repair = fs.Bool("repair", false, "move damaged files and stray temporaries into quarantine/")
		deep   = fs.Bool("deep", false, "additionally reopen intact databases end to end (slower)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: hdovfsck [-repair] [-deep] DIR...")
		return 2
	}

	exit := 0
	for _, dir := range fs.Args() {
		checkOne(dir, *repair, *deep, stdout, stderr, &exit)
	}
	return exit
}

// checkOne runs the standard single-database battery on dir, raising
// *exit for damage (1) or I/O trouble (2).
func checkOne(dir string, repair, deep bool, stdout, stderr io.Writer, exit *int) {
	rep, err := dbfile.Fsck(dir)
	if err != nil {
		fmt.Fprintf(stderr, "hdovfsck: %s: %v\n", dir, err)
		*exit = 2
		return
	}
	status := "intact"
	if !rep.Intact() {
		status = "DAMAGED"
		if *exit == 0 {
			*exit = 1
		}
	}
	fmt.Fprintf(stdout, "%s: %s (manifest=%v image=%v layout=%v codec=%v)\n",
		dir, status, rep.ManifestOK, rep.ImageOK, rep.LayoutOK, rep.CodecOK)
	if rep.ManifestOK {
		fmt.Fprintf(stdout, "  dynamicscene: epoch=%d ops=%d deltas=%d\n",
			rep.Epoch, rep.OpsLogged, rep.DeltasApplied)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "  problem: %s\n", p)
	}
	for _, id := range rep.BadCodecPages {
		fmt.Fprintf(stdout, "  bad codec page: %d\n", id)
	}
	for _, s := range rep.Stray {
		fmt.Fprintf(stdout, "  stray: %s\n", s)
	}

	if deep && rep.Intact() {
		if _, err := dbfile.Open(dir); err != nil {
			fmt.Fprintf(stdout, "  deep: open failed: %v\n", err)
			if *exit == 0 {
				*exit = 1
			}
		} else {
			fmt.Fprintf(stdout, "  deep: open ok\n")
		}
	}

	if repair && (!rep.Intact() || len(rep.Stray) > 0) {
		moved, err := dbfile.Repair(dir, rep)
		if err != nil {
			fmt.Fprintf(stderr, "hdovfsck: %s: %v\n", dir, err)
			*exit = 2
			return
		}
		for _, name := range moved {
			fmt.Fprintf(stdout, "  quarantined: %s\n", name)
		}
	}
}
