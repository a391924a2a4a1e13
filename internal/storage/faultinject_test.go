package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// openInjected reopens a page file with a FaultInjector interposed.
func openInjected(t *testing.T, path string, seed int64) (*Pager, *FaultInjector) {
	t.Helper()
	var inj *FaultInjector
	p, err := OpenWrapped(path, true, func(f File) File {
		inj = NewFaultInjector(f, seed)
		return inj
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, inj
}

func TestRetryHealsScriptedTransients(t *testing.T) {
	path, id := buildFile(t)
	clean, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	clean.Close()

	p, inj := openInjected(t, path, 1)
	defer p.Close()
	// One fault of each recoverable kind, each healed by the next re-read.
	for _, kind := range []FaultKind{FaultErr, FaultShort, FaultFlip} {
		inj.Script(kind)
		got, err := p.ReadPage(id)
		if err != nil {
			t.Fatalf("injected %v did not heal: %v", kind, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("injected %v returned wrong bytes", kind)
		}
	}
	rs := p.RetryStats()
	if rs.Healed != 3 || rs.Retries < 3 || rs.Failed != 0 {
		t.Fatalf("retry stats = %+v, want 3 healed, >=3 retries, 0 failed", rs)
	}
}

func TestRetryExhaustionIsPermanent(t *testing.T) {
	path, id := buildFile(t)
	p, inj := openInjected(t, path, 1)
	defer p.Close()
	// Every attempt in the budget faults: the read must surface an error
	// classified permanent (Failed), not loop forever.
	kinds := make([]FaultKind, readAttempts)
	for i := range kinds {
		kinds[i] = FaultErr
	}
	inj.Script(kinds...)
	if _, err := p.ReadPage(id); err == nil {
		t.Fatal("read succeeded with every attempt faulted")
	} else if !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted error should carry the underlying cause, got %v", err)
	}
	rs := p.RetryStats()
	if rs.Failed != 1 || rs.Healed != 0 {
		t.Fatalf("retry stats = %+v, want 1 failed, 0 healed", rs)
	}
	// The injector is drained; the next read is clean.
	if _, err := p.ReadPage(id); err != nil {
		t.Fatalf("post-exhaustion clean read failed: %v", err)
	}
}

func TestRetryDoesNotMaskPersistentCorruption(t *testing.T) {
	// An on-disk flip (not injected: the stored bytes are wrong) must still
	// fail after the retry budget — retries must never "heal" real rot.
	path, id := buildFile(t)
	p, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Corrupt through a writable second handle while p serves reads.
	w, err := openOSFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte{0xFF}, int64(id)*512+7); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := p.ReadPage(id); err == nil {
		t.Fatal("persistent corruption read back clean")
	} else if !errors.Is(err, errChecksum) {
		t.Fatalf("want checksum mismatch, got %v", err)
	}
	if rs := p.RetryStats(); rs.Failed != 1 || rs.Retries != readAttempts-1 {
		t.Fatalf("retry stats = %+v, want full retry budget spent then 1 failed", rs)
	}
}

func TestProbabilisticInjectionIsSeeded(t *testing.T) {
	path, id := buildFile(t)
	run := func() FaultInjectorStats {
		p, inj := openInjected(t, path, 42)
		defer p.Close()
		// Keep the rate low enough that a full retry budget of consecutive
		// faults (rate^readAttempts per read) is vanishingly unlikely.
		inj.SetRate(0.1)
		for i := 0; i < 100; i++ {
			if _, err := p.ReadPage(id); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		return inj.Stats()
	}
	a, b := run(), run()
	if a.Injected == 0 {
		t.Fatal("10% rate over 100 reads injected nothing")
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestRateInjectionAlwaysHeals: rate injection is transient by
// construction — even at rate 1 the injector lets every fourth read of an
// offset through clean, so a page read spends its whole retry budget and
// heals, never fails. (Exhausting the budget takes a script:
// TestRetryExhaustionIsPermanent.)
func TestRateInjectionAlwaysHeals(t *testing.T) {
	path, id := buildFile(t)
	p, inj := openInjected(t, path, 3)
	defer p.Close()
	inj.SetRate(1, FaultErr, FaultFlip, FaultShort)
	const reads = 50
	for i := 0; i < reads; i++ {
		if _, err := p.ReadPage(id); err != nil {
			t.Fatalf("read %d under rate-1 injection: %v", i, err)
		}
	}
	want := RetryStats{Retries: reads * (readAttempts - 1), Healed: reads}
	if rs := p.RetryStats(); rs != want {
		t.Fatalf("retry stats %+v, want %+v", rs, want)
	}
	if st := inj.Stats(); st.Injected != reads*(readAttempts-1) || st.Reads != reads*readAttempts {
		t.Fatalf("injector stats %+v", st)
	}
}

// TestRateInjectionStreakPerReader: the rate-mode streak cap holds per
// reader, not per offset. Reader A faults once; reader B then reads the
// same offset three times; A's retries must still heal within its budget.
// With one streak per offset, B's third read came through clean, reset
// the streak A had started, and A's next three reads all faulted: four
// faults in A's four attempts.
func TestRateInjectionStreakPerReader(t *testing.T) {
	path, id := buildFile(t)
	p, inj := openInjected(t, path, 3)
	defer p.Close()
	inj.SetRate(1, FaultErr)
	off := int64(id) * int64(p.PageSize())
	a, b := make([]byte, p.PageSize()), make([]byte, p.PageSize())
	faulted := func(buf []byte) bool {
		_, err := inj.ReadAt(buf, off)
		return err != nil
	}
	aFaults := 0
	if faulted(a) {
		aFaults++
	}
	for range 3 {
		faulted(b)
	}
	for attempt := 1; attempt < readAttempts; attempt++ {
		if !faulted(a) {
			return
		}
		aFaults++
	}
	t.Fatalf("reader A faulted on all %d of its %d attempts, with reader B between them", aFaults, readAttempts)
}

func TestInjectorExemptsSuperblock(t *testing.T) {
	path, _ := buildFile(t)
	// Rate 1 faults every eligible read; Open must still succeed because
	// the superblock (offset 0) is exempt.
	p, err := OpenWrapped(path, true, FaultConfig{Rate: 1, Seed: 7, Kinds: []FaultKind{FaultErr}}.Wrap)
	if err != nil {
		t.Fatalf("open under full-rate injection failed: %v", err)
	}
	p.Close()
}

func TestParseFaultConfig(t *testing.T) {
	cfg, err := ParseFaultConfig("rate=0.02,seed=9,latency=200us,kinds=flip+err")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rate != 0.02 || cfg.Seed != 9 || cfg.Latency != 200*time.Microsecond {
		t.Fatalf("parsed %+v", cfg)
	}
	if len(cfg.Kinds) != 2 || cfg.Kinds[0] != FaultFlip || cfg.Kinds[1] != FaultErr {
		t.Fatalf("parsed kinds %v", cfg.Kinds)
	}
	if cfg, err := ParseFaultConfig("rate=0.5"); err != nil || len(cfg.Kinds) != 3 {
		t.Fatalf("defaults: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"", "rate=0", "rate=2", "rate=0.1,kinds=lava", "nonsense", "rate=0.1,seed=x"} {
		if _, err := ParseFaultConfig(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}
