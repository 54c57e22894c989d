package verify

import (
	"strings"
	"testing"

	"replayopt/internal/mem"
	"replayopt/internal/replay"
	"replayopt/internal/rt"
)

func TestMismatchErrorMessages(t *testing.T) {
	retErr := &MismatchError{IsRet: true, Got: 2, Want: 3}
	if !strings.Contains(retErr.Error(), "return value") {
		t.Errorf("ret error: %v", retErr)
	}
	locErr := &MismatchError{Addr: mem.Addr(0x5000), Got: 7, Want: 9}
	msg := locErr.Error()
	if !strings.Contains(msg, "0x5000") || !strings.Contains(msg, "0x9") {
		t.Errorf("loc error: %v", msg)
	}
	missing := &MismatchError{Addr: mem.Addr(0x6000), Missing: true}
	if !strings.Contains(missing.Error(), "unreadable") {
		t.Errorf("missing error: %v", missing)
	}
}

func TestMapCheckVoidSkipsReturn(t *testing.T) {
	m := &Map{Entries: map[mem.Addr]uint64{}, Ret: 42, Void: true}
	// A void region never fails on the return value; with no entries any
	// replay result passes.
	fx := setupFixture(t)
	res := replayBaseline(t, fx)
	res.Ret = 7 // wrong vs m.Ret, but the map is void
	if err := m.Check(res); err != nil {
		t.Errorf("void map rejected: %v", err)
	}
	m.Void = false
	if err := m.Check(res); err == nil {
		t.Error("non-void map accepted a wrong return value")
	}
}

// TestMapCheckReportsLowestMismatch: with several wrong and several
// unreadable locations, Check names the lowest mismatching address on every
// call, whatever order the entries map ranges in.
func TestMapCheckReportsLowestMismatch(t *testing.T) {
	const base = mem.Addr(0x40000)
	space := mem.NewAddressSpace()
	space.Map(base, mem.PageSize, mem.ProtRW, "data")
	m := &Map{Entries: map[mem.Addr]uint64{}, Void: true}
	for i := 0; i < 32; i++ {
		a := base + mem.Addr(8*i)
		if err := space.WriteU64(a, uint64(i)); err != nil {
			t.Fatal(err)
		}
		m.Entries[a] = uint64(i)
	}
	for _, i := range []int{29, 7, 18, 11} {
		m.Entries[base+mem.Addr(8*i)] = 1000 // wrong value
	}
	for i := 0; i < 8; i++ {
		m.Entries[base+2*mem.PageSize+mem.Addr(8*i)] = 5 // unmapped: missing
	}
	res := &replay.Result{Proc: &rt.Process{Space: space}}
	check := func(want *MismatchError) {
		t.Helper()
		for run := 0; run < 50; run++ {
			if err := m.Check(res); err == nil || err.Error() != want.Error() {
				t.Fatalf("run %d: got %v, want %v", run, err, want)
			}
		}
	}
	check(&MismatchError{Addr: base + 7*8, Want: 1000, Got: 7})

	// An unreadable location below every wrong one is the one reported.
	m.Entries[base-mem.PageSize] = 3
	check(&MismatchError{Addr: base - mem.PageSize, Want: 3, Missing: true})
}
