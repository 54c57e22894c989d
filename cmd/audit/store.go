package main

import (
	"fmt"
	"io"

	"replayopt/internal/capture"
	"replayopt/internal/capture/castore"
)

// runStore inspects, verifies, or repairs a content-addressed snapshot store
// (the capture persistence format of DESIGN.md §10). Plain and -json modes
// report a degraded store but exit 0, since every complete snapshot still
// replays; -verify exits 1 unless the store is fully healthy.
func runStore(e *env, args []string) int {
	fs := e.flags()
	verify := fs.Bool("verify", false, "exit 1 unless the store is fully healthy")
	repair := fs.Bool("repair", false, "rewrite the store keeping only recoverable snapshots")
	jsonOut := fs.Bool("json", false, "emit the machine-readable report, checked before it is printed")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return e.fail(2, "usage: audit store [-verify|-repair|-json] store.cas")
	}
	path := fs.Arg(0)

	if *repair {
		rs, err := castore.Repair(path, nil)
		if err != nil {
			return e.fail(1, "repair: %v", err)
		}
		fmt.Fprintf(e.stdout, "repaired %s: kept %d snapshots (dropped %d), kept %d boot pages (dropped %d), %d -> %d bytes\n",
			path, rs.SnapshotsKept, rs.SnapshotsDropped, rs.BootPagesKept, rs.BootPagesDropped,
			rs.BytesBefore, rs.BytesAfter)
		return 0
	}

	f, err := castore.Open(path)
	if err != nil {
		return e.fail(1, "%v", err)
	}
	rep := castore.BuildReport(f, appLabel)
	if *jsonOut {
		if err := e.emit(rep); err != nil {
			return e.fail(1, "%v", err)
		}
	} else {
		printStore(e.stdout, rep)
	}
	if *verify && !rep.Healthy() {
		return 1
	}
	return 0
}

// appLabel decodes a manifest's opaque metadata into its app name; castore
// itself treats metadata as bytes, only the capture layer knows the schema.
func appLabel(meta []byte) string {
	m, err := capture.DecodeSnapshotMeta(meta)
	if err != nil {
		return "(undecodable)"
	}
	return m.App
}

func printStore(w io.Writer, rep *castore.Report) {
	fmt.Fprintf(w, "%s: %d bytes, %d records (%d chunks, %d manifests, %d indexes)\n",
		rep.Path, rep.FileBytes, rep.Records, rep.Chunks, rep.Manifests, rep.Indexes)
	health := "healthy"
	if !rep.Healthy() {
		health = "DEGRADED"
	}
	fmt.Fprintf(w, "%s: %d damaged records, %d torn-tail bytes, %d skipped snapshots", health,
		rep.Damaged, rep.TruncatedTailBytes, rep.SkippedSnapshots)
	if rep.NoIndex {
		fmt.Fprint(w, ", NO INTACT INDEX (manifest-order fallback, boot table lost)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "dedup: %.2fx (%d raw bytes referenced, %d stored after dedup+compression)\n",
		rep.DedupRatio, rep.ReferencedRawBytes, rep.StoredChunkBytes)
	if len(rep.Snapshots) > 0 {
		fmt.Fprintf(w, "%-12s %-22s %8s %9s %s\n", "digest", "app", "pages", "raw MB", "state")
		for _, s := range rep.Snapshots {
			state := "complete"
			if !s.Complete {
				state = fmt.Sprintf("INCOMPLETE (%d chunks missing)", s.MissingChunks)
			}
			fmt.Fprintf(w, "%-12s %-22s %8d %9.2f %s\n", s.Digest, s.App, s.Pages, s.RawMB, state)
		}
	}
}
