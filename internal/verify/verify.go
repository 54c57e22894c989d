// Package verify implements §3.4: an interpreted replay records the hot
// region's externally visible behavior — every modified heap/static location
// with its final value, plus the region's return value — into a verification
// map. Candidate binaries are checked against the map after each replay;
// mismatches mean the optimization sequence miscompiled the region and the
// genome is discarded. The same interpreted replay also collects the
// virtual-call type profile that drives speculative devirtualization.
package verify

import (
	"fmt"
	"sort"

	"replayopt/internal/capture"
	"replayopt/internal/device"
	"replayopt/internal/dex"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/mem"
	"replayopt/internal/replay"
	"replayopt/internal/sa"
)

// Map is the verification map.
type Map struct {
	Entries map[mem.Addr]uint64
	Ret     uint64
	Void    bool // the region returns nothing; skip the return check
	// StoresSkipped means the effect analysis proved the region root's
	// summary free of heap writes (Pure or ReadOnly), so store recording was
	// skipped entirely: the region's only externally visible behavior is its
	// return value.
	StoresSkipped bool
	// StoresElided counts stores dropped by the finer-grained points-to
	// shrink: writes that landed inside an allocation whose site the alias
	// analysis proves non-escaping. Such memory is unreachable once the
	// region returns (the bump allocator never reuses addresses), so its
	// contents are not externally visible behavior — and candidates that
	// optimize those allocations away (stackalloc) are not penalized for the
	// missing writes.
	StoresElided int
}

// MismatchError reports a failed verification.
type MismatchError struct {
	Addr    mem.Addr // 0 for return-value mismatches
	Want    uint64
	Got     uint64
	IsRet   bool
	Missing bool
}

func (e *MismatchError) Error() string {
	if e.IsRet {
		return fmt.Sprintf("verify: return value %#x, want %#x", e.Got, e.Want)
	}
	if e.Missing {
		return fmt.Sprintf("verify: location %#x unreadable", uint64(e.Addr))
	}
	return fmt.Sprintf("verify: location %#x holds %#x, want %#x", uint64(e.Addr), e.Got, e.Want)
}

// recorder collects store addresses and virtual dispatches during the
// interpreted replay.
type recorder struct {
	stores map[mem.Addr]bool
	prof   *lir.Profile
	// skipStores drops store recording (the effect analysis proved the
	// region write-free); dispatches are still recorded for the type profile.
	skipStores bool
	// alias, when non-nil, enables the per-allocation shrink: extents of
	// allocations whose site is proven non-escaping, kept sorted by base
	// (the bump allocator hands out monotonically increasing addresses, so
	// appends stay sorted). Stores landing inside one are elided.
	alias   *sa.AliasSummaries
	extents []extent
	elided  int
}

type extent struct{ lo, hi mem.Addr } // [lo, hi)

func (r *recorder) Store(a mem.Addr) {
	if r.skipStores {
		return
	}
	if n := len(r.extents); n > 0 {
		i := sort.Search(n, func(i int) bool { return r.extents[i].lo > a })
		if i > 0 && a < r.extents[i-1].hi {
			r.elided++
			return
		}
	}
	r.stores[a] = true
}
func (r *recorder) Dispatch(s interp.CallSite, c dex.ClassID) {
	r.prof.Record(lir.SiteKey{Method: s.Method, PC: s.PC}, c)
}

// Alloc implements interp.AllocRecorder: remember the extents of allocations
// the points-to analysis proves non-escaping.
func (r *recorder) Alloc(s interp.CallSite, base mem.Addr, size int64) {
	if r.alias == nil || r.skipStores || size <= 0 {
		return
	}
	site := sa.AllocSite{Method: s.Method, PC: s.PC}
	if !r.alias.SiteKnown(site) || r.alias.SiteEscapes(site) {
		return
	}
	e := extent{lo: base, hi: base + mem.Addr(size)}
	if n := len(r.extents); n == 0 || r.extents[n-1].hi <= e.lo {
		r.extents = append(r.extents, e)
		return
	}
	// Defensive: keep the slice sorted even if the allocator ever stops
	// being monotone.
	i := sort.Search(len(r.extents), func(i int) bool { return r.extents[i].lo >= e.lo })
	r.extents = append(r.extents, extent{})
	copy(r.extents[i+1:], r.extents[i:])
	r.extents[i] = e
}

// Build replays snap under the interpreter and constructs the verification
// map and the type profile. eff, when non-nil, is the interprocedural effect
// analysis for prog: if it proves the region root's transitive summary free
// of heap writes (Pure or ReadOnly), store recording is skipped and the map
// checks only the return value — a statically justified shrink of the §3.4
// verification map. A nil eff keeps the full conservative recording.
func Build(dev *device.Device, store *capture.Store, snap *capture.Snapshot,
	prog *dex.Program, eff *sa.Result) (*Map, *lir.Profile, error) {

	rec := &recorder{stores: map[mem.Addr]bool{}, prof: lir.NewProfile()}
	if eff != nil {
		sum := eff.Summary[snap.Root]
		rec.skipStores = sum&(sa.EffWriteLocal|sa.EffWriteEscaping) == 0
		rec.alias = eff.Alias
	}
	res, err := replay.Run(dev, store, replay.Request{
		Snapshot: snap,
		Prog:     prog,
		Tier:     replay.TierInterp,
		Recorder: rec,
		ASLRSeed: 1,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("verify: interpreted replay failed: %w", err)
	}
	m := &Map{Entries: make(map[mem.Addr]uint64, len(rec.stores))}
	addrs := make([]mem.Addr, 0, len(rec.stores))
	for a := range rec.stores {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		v, err := res.Proc.Space.ReadU64(a)
		if err != nil {
			return nil, nil, fmt.Errorf("verify: reading %#x: %w", uint64(a), err)
		}
		m.Entries[a] = v
	}
	m.Ret = res.Ret
	m.Void = prog.Methods[snap.Root].Ret == dex.KindVoid
	m.StoresSkipped = rec.skipStores
	m.StoresElided = rec.elided
	return m, rec.prof, nil
}

// Check compares a candidate replay's observable behavior against the map.
// A location mismatch reports the lowest mismatching address, missing or
// wrong, so the error text does not depend on the map's range order.
func (m *Map) Check(res *replay.Result) error {
	if !m.Void && res.Ret != m.Ret {
		return &MismatchError{IsRet: true, Got: res.Ret, Want: m.Ret}
	}
	var bad *MismatchError
	for a, want := range m.Entries {
		if bad != nil && a > bad.Addr {
			continue
		}
		if got, err := res.Proc.Space.ReadU64(a); err != nil {
			bad = &MismatchError{Addr: a, Want: want, Missing: true}
		} else if got != want {
			bad = &MismatchError{Addr: a, Want: want, Got: got}
		}
	}
	if bad != nil {
		return bad
	}
	return nil
}

// Size reports the number of tracked locations (documentation/inspection).
func (m *Map) Size() int { return len(m.Entries) }
