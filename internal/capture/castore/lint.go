package castore

import (
	"fmt"
	"os"

	"replayopt/internal/obs"
	"replayopt/internal/schema"
)

// ReportSchemaVersion versions the `audit store` JSON report.
const ReportSchemaVersion = 1

// SnapshotReport is one snapshot row of the `audit store` report.
type SnapshotReport struct {
	Digest        string  `json:"digest" schema:"nonempty"`
	App           string  `json:"app"`
	Pages         int     `json:"pages"`
	RawMB         float64 `json:"raw_mb"`
	Complete      bool    `json:"complete"`
	MissingChunks int     `json:"missing_chunks"`
}

// Report is the `audit store` document, checked through the shared strict
// decoder like every other audit report.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Path          string `json:"path" schema:"nonempty"`
	FileBytes     int64  `json:"file_bytes"`

	Records   int `json:"records"`
	Chunks    int `json:"chunks"`
	Manifests int `json:"manifests"`
	Indexes   int `json:"indexes"`

	Damaged            int   `json:"damaged_records"`
	TruncatedTailBytes int64 `json:"truncated_tail_bytes"`
	NoIndex            bool  `json:"no_index"`
	SkippedSnapshots   int   `json:"skipped_snapshots"`

	// Dedup accounting: raw bytes every live snapshot (plus the boot table)
	// references vs the unique chunk bytes actually stored.
	ReferencedRawBytes int64   `json:"referenced_raw_bytes"`
	UniqueRawBytes     int64   `json:"unique_raw_bytes"`
	StoredChunkBytes   int64   `json:"stored_chunk_bytes"`
	DedupRatio         float64 `json:"dedup_ratio"`

	Snapshots []SnapshotReport `json:"snapshots"`
}

// Healthy reports whether the store needs no attention: no damage, no torn
// tail, an intact index, and every live snapshot complete.
func (r *Report) Healthy() bool {
	return r.Damaged == 0 && r.TruncatedTailBytes == 0 && !r.NoIndex && r.SkippedSnapshots == 0
}

// BuildReport assembles the `audit store` report for a scanned file. appOf, when
// non-nil, labels each snapshot from its opaque metadata (the capture layer
// knows how to decode it; castore does not).
func BuildReport(f *File, appOf func(meta []byte) string) *Report {
	rep := &Report{
		SchemaVersion:      ReportSchemaVersion,
		Path:               f.Path,
		FileBytes:          f.Scan.FileBytes,
		Records:            f.Scan.Records,
		Chunks:             f.Scan.Chunks,
		Manifests:          f.Scan.Manifests,
		Indexes:            f.Scan.Indexes,
		Damaged:            f.Scan.DamagedRecords,
		TruncatedTailBytes: f.Scan.TruncatedTailBytes,
		NoIndex:            f.NoIndex,
		SkippedSnapshots:   f.SkippedSnapshots,
		UniqueRawBytes:     f.Scan.ChunkRawBytes,
		StoredChunkBytes:   f.Scan.ChunkStoredBytes,
		Snapshots:          []SnapshotReport{},
	}
	seen := map[Key]bool{}
	countRefs := func(refs []PageRef) {
		for _, ref := range refs {
			if loc, ok := f.chunks[ref.Key]; ok {
				rep.ReferencedRawBytes += int64(loc.rawLen)
				seen[ref.Key] = true
			}
		}
	}
	for _, s := range f.Snapshots() {
		app := ""
		if appOf != nil {
			app = appOf(s.Meta)
		}
		rep.Snapshots = append(rep.Snapshots, SnapshotReport{
			Digest:        s.Digest.Short(),
			App:           app,
			Pages:         len(s.Pages),
			RawMB:         float64(s.RawBytes(f)) / (1 << 20),
			Complete:      s.Complete,
			MissingChunks: s.MissingChunks,
		})
		countRefs(s.Pages)
	}
	countRefs(f.Boot())
	// Dedup ratio over what the live set references: raw referenced bytes
	// vs the unique raw bytes backing them.
	var uniqueRef int64
	for k := range seen {
		uniqueRef += int64(f.chunks[k].rawLen)
	}
	if uniqueRef > 0 {
		rep.DedupRatio = float64(rep.ReferencedRawBytes) / float64(uniqueRef)
	}
	return rep
}

// Check holds the report's cross-field invariant: every incomplete snapshot
// is counted in skipped_snapshots.
func (r *Report) Check() error {
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	incomplete := 0
	for _, sn := range r.Snapshots {
		if !sn.Complete {
			incomplete++
		}
	}
	if incomplete > r.SkippedSnapshots {
		return fmt.Errorf("%d incomplete snapshots but skipped_snapshots=%d", incomplete, r.SkippedSnapshots)
	}
	return nil
}

// ValidateReportJSON strictly decodes a JSON-encoded Report and checks it.
func ValidateReportJSON(data []byte) error {
	return schema.Decode(data, new(Report))
}

// RepairStats summarizes one repair pass.
type RepairStats struct {
	SnapshotsKept    int
	SnapshotsDropped int
	BootPagesKept    int
	BootPagesDropped int
	BytesBefore      int64
	BytesAfter       int64
}

// Repair rewrites the store at path keeping only what is recoverable: every
// complete live snapshot (re-chunked, so orphaned and damaged records are
// dropped) and every boot page whose chunk survived. The rewrite lands in a
// temp file first and replaces the original atomically. The scope (nil is
// fine) records a castore.repair span plus drop/reclaim counters, so Save
// and Load are no longer the only observed store operations — a fleet server
// repairing a shard shows the work in its metrics.
func Repair(path string, sc *obs.Scope) (rs RepairStats, err error) {
	sp := sc.Start("castore.repair", obs.A("path", path))
	defer func() {
		if sc != nil {
			sc.Counter("castore.repairs").Add(1)
			sc.Counter("castore.repair_snapshots_dropped").Add(int64(rs.SnapshotsDropped))
			sc.Counter("castore.repair_boot_pages_dropped").Add(int64(rs.BootPagesDropped))
			sc.Counter("castore.repair_bytes_reclaimed").Add(rs.BytesBefore - rs.BytesAfter)
		}
		sp.End(
			obs.A("snapshots_kept", rs.SnapshotsKept),
			obs.A("snapshots_dropped", rs.SnapshotsDropped),
			obs.A("bytes_before", rs.BytesBefore),
			obs.A("bytes_after", rs.BytesAfter),
			obs.A("ok", err == nil),
		)
	}()
	f, err := Open(path)
	if err != nil {
		return rs, err
	}
	rs.BytesBefore = f.Scan.FileBytes
	tmp := path + ".repair"
	w, err := OpenWriter(tmp)
	if err != nil {
		return rs, err
	}
	fail := func(err error) (RepairStats, error) {
		w.Close()
		os.Remove(tmp)
		return rs, err
	}
	var digests []Key
	for _, s := range f.Snapshots() {
		if !s.Complete {
			rs.SnapshotsDropped++
			continue
		}
		refs := make([]PageRef, 0, len(s.Pages))
		ok := true
		for _, ref := range s.Pages {
			data, err := f.ReadChunk(ref.Key)
			if err != nil {
				// The chunk rotted between scan and read: drop the snapshot.
				ok = false
				break
			}
			k, _, err := w.PutChunk(data)
			if err != nil {
				return fail(err)
			}
			refs = append(refs, PageRef{Addr: ref.Addr, Key: k})
		}
		if !ok {
			rs.SnapshotsDropped++
			continue
		}
		d, _, err := w.PutManifest(s.Meta, refs)
		if err != nil {
			return fail(err)
		}
		digests = append(digests, d)
		rs.SnapshotsKept++
	}
	var boot []PageRef
	for _, ref := range f.Boot() {
		data, err := f.ReadChunk(ref.Key)
		if err != nil {
			rs.BootPagesDropped++
			continue
		}
		k, _, err := w.PutChunk(data)
		if err != nil {
			return fail(err)
		}
		boot = append(boot, PageRef{Addr: ref.Addr, Key: k})
		rs.BootPagesKept++
	}
	if err := w.PutIndex(digests, boot); err != nil {
		return fail(err)
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return rs, err
	}
	st, err := os.Stat(tmp)
	if err != nil {
		os.Remove(tmp)
		return rs, err
	}
	rs.BytesAfter = st.Size()
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return rs, fmt.Errorf("castore: repair rename: %w", err)
	}
	return rs, nil
}

// BenchSchemaVersion versions the BENCH_store.json artifact.
const BenchSchemaVersion = 2

// Bench is the BENCH_store.json document written by BenchmarkSnapshotStore:
// the content-addressed store against one gzip stream of the same raw pages
// on a multi-capture store, its latencies, and its corruption-recovery rate.
type Bench struct {
	SchemaVersion     int     `json:"schema_version"`
	Benchmark         string  `json:"benchmark"`
	Captures          int     `json:"captures"`
	RawPageBytes      int64   `json:"raw_page_bytes"`
	GzipBytes         int64   `json:"gzip_bytes"`
	CastoreBytes      int64   `json:"castore_bytes"`
	DedupRatio        float64 `json:"dedup_ratio"`
	ChunksUnique      int     `json:"chunks_unique"`
	ChunksReused      int     `json:"chunks_reused"`
	SaveMs            float64 `json:"save_ms"`
	LoadMs            float64 `json:"load_ms"`
	MaterializeMs     float64 `json:"materialize_ms"`
	CorruptionTrials  int     `json:"corruption_trials"`
	RecoveryRate      float64 `json:"recovery_rate"`
	TornTailRecovered bool    `json:"torn_tail_recovered"`
}

// Check holds the artifact's invariants: a recovery rate in [0,1], a
// non-empty gzip baseline, and a non-empty castore file smaller than it.
func (b *Bench) Check() error {
	if b.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", b.SchemaVersion, BenchSchemaVersion)
	}
	if b.Benchmark != "SnapshotStore" {
		return fmt.Errorf("benchmark %q, want SnapshotStore", b.Benchmark)
	}
	if b.RecoveryRate < 0 || b.RecoveryRate > 1 {
		return fmt.Errorf("recovery_rate %v outside [0,1]", b.RecoveryRate)
	}
	if b.CastoreBytes <= 0 {
		return fmt.Errorf("castore_bytes %v not positive", b.CastoreBytes)
	}
	if b.GzipBytes <= 0 {
		return fmt.Errorf("gzip_bytes %v not positive", b.GzipBytes)
	}
	if b.CastoreBytes >= b.GzipBytes {
		return fmt.Errorf("castore store (%v B) not smaller than gzip of the raw pages (%v B)", b.CastoreBytes, b.GzipBytes)
	}
	return nil
}
