package storage

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultKind enumerates the read-path failures a FaultInjector can produce.
type FaultKind int

const (
	// FaultErr fails the read with an ErrTransient-marked error.
	FaultErr FaultKind = iota
	// FaultShort delivers roughly half the requested bytes.
	FaultShort
	// FaultFlip flips one bit of the delivered buffer — the disk copy
	// stays intact, so the resulting checksum mismatch heals on re-read.
	FaultFlip
	// FaultSlow delays the read without failing it.
	FaultSlow
)

func (k FaultKind) String() string {
	switch k {
	case FaultErr:
		return "err"
	case FaultShort:
		return "short"
	case FaultFlip:
		return "flip"
	case FaultSlow:
		return "slow"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultConfig describes a fault-injection regime: with probability Rate
// each eligible read draws one of Kinds (uniformly); Latency additionally
// delays every injected fault (and every FaultSlow read). The zero config
// injects nothing.
type FaultConfig struct {
	Rate    float64
	Seed    int64
	Latency time.Duration
	Kinds   []FaultKind
}

// ParseFaultConfig parses the -chaos flag syntax:
//
//	rate=0.02,seed=1,latency=200us,kinds=flip+err+short
//
// Fields may appear in any order; omitted fields default to seed=1,
// latency=0 and kinds=flip+err+short (everything recoverable). rate is
// required and must be in (0, 1].
func ParseFaultConfig(spec string) (FaultConfig, error) {
	cfg := FaultConfig{Seed: 1, Kinds: []FaultKind{FaultFlip, FaultErr, FaultShort}}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, fmt.Errorf("storage: chaos field %q is not key=value", field)
		}
		var err error
		switch key {
		case "rate":
			cfg.Rate, err = strconv.ParseFloat(val, 64)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "latency":
			cfg.Latency, err = time.ParseDuration(val)
		case "kinds":
			cfg.Kinds = cfg.Kinds[:0]
			for _, name := range strings.Split(val, "+") {
				switch name {
				case "err":
					cfg.Kinds = append(cfg.Kinds, FaultErr)
				case "short":
					cfg.Kinds = append(cfg.Kinds, FaultShort)
				case "flip":
					cfg.Kinds = append(cfg.Kinds, FaultFlip)
				case "slow":
					cfg.Kinds = append(cfg.Kinds, FaultSlow)
				default:
					return cfg, fmt.Errorf("storage: unknown chaos kind %q (want err, short, flip or slow)", name)
				}
			}
		default:
			return cfg, fmt.Errorf("storage: unknown chaos field %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("storage: chaos field %q: %w", field, err)
		}
	}
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		return cfg, fmt.Errorf("storage: chaos rate %g out of (0, 1]", cfg.Rate)
	}
	if len(cfg.Kinds) == 0 {
		return cfg, fmt.Errorf("storage: chaos kinds list is empty")
	}
	return cfg, nil
}

// Wrap interposes a FaultInjector configured by cfg over f. A zero-rate
// config returns f unchanged.
func (cfg FaultConfig) Wrap(f File) File {
	if cfg.Rate <= 0 {
		return f
	}
	inj := NewFaultInjector(f, cfg.Seed)
	inj.SetRate(cfg.Rate, cfg.Kinds...)
	inj.SetLatency(cfg.Latency)
	return inj
}

// FaultInjectorStats counts what an injector has done.
type FaultInjectorStats struct {
	Reads    uint64 // eligible ReadAt calls observed
	Injected uint64 // reads that drew a fault
}

// FaultInjector wraps a File and injects read faults: scripted (an
// explicit queue consumed one entry per read — deterministic tests) and
// probabilistic (a seeded rate — chaos soak and the -chaos serve flag).
//
// Rate mode injects TRANSIENT faults only, by construction: a transient
// fault is one that heals on re-read, so after readAttempts-1 consecutive
// injected faults on one reader's reads of one offset, that reader's next
// read there goes through clean, whatever the rate. A reader is one
// destination buffer: the pager's retry loop re-reads into the buffer it
// first read into, so a page read that retries within the pager's budget
// always succeeds under rate injection, however other readers of the same
// offset interleave with it. Exhausting the retry budget takes a script,
// which has no such cap.
// Reads at offset 0 are never faulted: the superblock is read once during
// Open, outside the pager's retry loop, and poisoning it would fail every
// open rather than exercise the recovery machinery.
//
// Writes, Sync and Close pass through untouched — GMine's stores are
// write-once/read-many and the resilience layer under test is the read
// path.
type FaultInjector struct {
	f File

	mu      sync.Mutex
	rng     *rand.Rand
	rate    float64
	kinds   []FaultKind
	latency time.Duration
	script  []FaultKind
	// streak counts the consecutive rate-injected faults of each reader
	// currently in a run of them (entries leave on a clean read).
	streak map[streakKey]int
	stats  FaultInjectorStats
}

// streakKey names one reader's reads of one offset: the offset and the
// destination buffer. With a streak per offset alone, another reader's
// clean read would reset it, and a reader could fault on every attempt.
type streakKey struct {
	off int64
	buf *byte
}

// NewFaultInjector wraps f. With no script and no rate set it is a
// transparent pass-through.
func NewFaultInjector(f File, seed int64) *FaultInjector {
	return &FaultInjector{f: f, rng: rand.New(rand.NewSource(seed)), streak: map[streakKey]int{}}
}

// SetRate arms probabilistic injection: each eligible read faults with
// probability rate, drawing uniformly from kinds (default: flip, err,
// short) — except that a run of readAttempts-1 faults on one reader's
// reads of one offset is always followed by a clean read for that reader.
func (fi *FaultInjector) SetRate(rate float64, kinds ...FaultKind) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.rate = rate
	if len(kinds) == 0 {
		kinds = []FaultKind{FaultFlip, FaultErr, FaultShort}
	}
	fi.kinds = append(fi.kinds[:0], kinds...)
}

// SetLatency delays every injected fault (and every FaultSlow) by d.
func (fi *FaultInjector) SetLatency(d time.Duration) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.latency = d
}

// Script queues faults consumed one per eligible read, before any
// probabilistic draw. Deterministic: the next len(kinds) reads fault in
// exactly this order.
func (fi *FaultInjector) Script(kinds ...FaultKind) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.script = append(fi.script, kinds...)
}

// Stats snapshots the injector's counters.
func (fi *FaultInjector) Stats() FaultInjectorStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.stats
}

// draw picks the fault (if any) for one eligible read by key's reader.
func (fi *FaultInjector) draw(key streakKey) (FaultKind, time.Duration, bool) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.stats.Reads++
	if len(fi.script) > 0 {
		k := fi.script[0]
		fi.script = fi.script[1:]
		fi.stats.Injected++
		return k, fi.latency, true
	}
	if fi.rate > 0 && fi.rng.Float64() < fi.rate && fi.streak[key] < readAttempts-1 {
		k := fi.kinds[fi.rng.Intn(len(fi.kinds))]
		fi.streak[key]++
		fi.stats.Injected++
		return k, fi.latency, true
	}
	delete(fi.streak, key)
	return 0, 0, false
}

func (fi *FaultInjector) ReadAt(p []byte, off int64) (int, error) {
	if off == 0 {
		return fi.f.ReadAt(p, off)
	}
	key := streakKey{off: off}
	if len(p) > 0 {
		key.buf = &p[0]
	}
	kind, latency, inject := fi.draw(key)
	if !inject {
		return fi.f.ReadAt(p, off)
	}
	if latency > 0 {
		time.Sleep(latency)
	}
	switch kind {
	case FaultErr:
		return 0, fmt.Errorf("injected read fault at offset %d: %w", off, ErrTransient)
	case FaultShort:
		n, err := fi.f.ReadAt(p[:len(p)/2], off)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("injected short read at offset %d (%d of %d bytes): %w", off, n, len(p), ErrTransient)
	case FaultFlip:
		n, err := fi.f.ReadAt(p, off)
		if n > 0 {
			// Flip one bit somewhere in the delivered buffer; the CRC
			// check downstream turns this into a healing checksum
			// mismatch. Position from the seeded rng for reproducibility.
			fi.mu.Lock()
			bit := fi.rng.Intn(n * 8)
			fi.mu.Unlock()
			p[bit/8] ^= 1 << (bit % 8)
		}
		return n, err
	case FaultSlow:
		return fi.f.ReadAt(p, off)
	}
	return fi.f.ReadAt(p, off)
}

func (fi *FaultInjector) WriteAt(p []byte, off int64) (int, error) { return fi.f.WriteAt(p, off) }
func (fi *FaultInjector) Sync() error                              { return fi.f.Sync() }
func (fi *FaultInjector) Close() error                             { return fi.f.Close() }
func (fi *FaultInjector) Size() (int64, error)                     { return fi.f.Size() }
