// Package tracecli implements the trace synthesizer behind
// cmd/mflushtrace — one entry point for every trace file the repo
// writes. Synthesis is fully
// deterministic: the same mode, flags and seed always produce a
// byte-identical file (CI runs the tool twice and cmps), so a trace's
// content digest — which campaign job keys hash — is reproducible from
// its recipe.
//
// Modes:
//
//	bench  one benchmark, recorded verbatim (the only mode the legacy
//	       MFTRACE1 output format can hold)
//	ramp   miss-latency overrides ramp linearly from lat-lo to lat-hi
//	       across the stream on a fraction of loads
//	sweep  stepped latency levels, one per segment, with phase markers
//	burst  alternating calm/burst segments; burst loads draw their
//	       override from a Pareto tail (lat-lo scale, -alpha shape)
//	phase  two benchmarks alternating segment by segment on one thread
//	       (instruction-mix phase changes, no overrides)
//	mix    one thread per benchmark — a multiprogrammed scenario whose
//	       streams are bit-identical to what a live run would
//	       synthesise for the same seed (sim.ReplayStream derivation)
package tracecli

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Config is one synthesis recipe. Zero fields take the documented
// defaults in (*Config).setDefaults.
type Config struct {
	// Mode selects the synthesis shape (see the package comment).
	Mode string
	// Benches are the benchmark profiles: one for bench/ramp/sweep/
	// burst, exactly two for phase, one per thread for mix.
	Benches []string
	// N is the instruction count per thread.
	N int
	// Threads replicates single-bench modes across several threads
	// (each thread gets its own stream seed and address base).
	Threads int
	// Seed drives every random draw.
	Seed uint64
	// Base, when non-zero, makes bench mode record thread 0 as the raw
	// (Seed, Base) generator stream. Otherwise, and in every scenario
	// mode, per-thread streams derive with sim.ReplayStream.
	Base uint64
	// LatLo and LatHi bound the miss-latency overrides in cycles.
	LatLo, LatHi uint32
	// TailFrac is the fraction of loads that receive an override.
	TailFrac float64
	// Alpha is the Pareto shape for burst-mode tail draws.
	Alpha float64
	// Segments is the number of levels (sweep), burst episodes (burst)
	// or alternation segments (phase).
	Segments int
}

func (c *Config) setDefaults() {
	if c.Mode == "" {
		c.Mode = "bench"
	}
	if c.N == 0 {
		c.N = 1_000_000
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LatLo == 0 {
		c.LatLo = 400
	}
	if c.LatHi == 0 {
		c.LatHi = 2000
	}
	if c.TailFrac == 0 {
		c.TailFrac = 0.05
	}
	if c.Alpha == 0 {
		c.Alpha = 1.5
	}
	if c.Segments == 0 {
		c.Segments = 4
	}
}

func (c *Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("tracecli: instruction count must be positive")
	}
	if c.Threads < 1 || c.Threads > 64 {
		return fmt.Errorf("tracecli: thread count %d outside [1,64]", c.Threads)
	}
	if c.LatHi < c.LatLo {
		return fmt.Errorf("tracecli: lat-hi %d below lat-lo %d", c.LatHi, c.LatLo)
	}
	if c.TailFrac < 0 || c.TailFrac > 1 {
		return fmt.Errorf("tracecli: tail-frac %g outside [0,1]", c.TailFrac)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("tracecli: alpha must be positive")
	}
	if c.Segments < 1 {
		return fmt.Errorf("tracecli: segments must be positive")
	}
	if len(c.Benches) == 0 {
		return fmt.Errorf("tracecli: need a benchmark (try -list)")
	}
	return nil
}

// profiles resolves the configured benchmark names.
func (c *Config) profiles() ([]synth.Profile, error) {
	profs := make([]synth.Profile, len(c.Benches))
	for i, name := range c.Benches {
		p, ok := synth.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("tracecli: unknown benchmark %q (try -list)", name)
		}
		profs[i] = p
	}
	return profs, nil
}

// Synthesize builds the scenario the config describes. Determinism
// contract: equal Configs yield deep-equal Scenarios, always.
func Synthesize(cfg Config) (*trace.Scenario, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	profs, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	switch cfg.Mode {
	case "bench":
		return synthBench(cfg, profs)
	case "ramp", "sweep", "burst":
		return synthLatency(cfg, profs)
	case "phase":
		return synthPhase(cfg, profs)
	case "mix":
		return synthMix(cfg, profs)
	default:
		return nil, fmt.Errorf("tracecli: unknown mode %q", cfg.Mode)
	}
}

// threadStream returns thread g's generator. Scenario modes derive the
// (seed, base) pair exactly as a live simulation does, so recorded
// streams replay bit-identically to on-the-fly synthesis.
func threadStream(cfg Config, prof synth.Profile, g int) *synth.Generator {
	seed, base := sim.ReplayStream(cfg.Seed, g)
	return synth.NewGenerator(prof, seed, base)
}

// record captures n instructions from src.
func record(src trace.Source, n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		src.Next(&out[i])
	}
	return out
}

// synthBench is bench mode: the raw generator stream, no overrides, no
// markers. A non-zero Base applies to thread 0; further threads derive
// via sim.ReplayStream.
func synthBench(cfg Config, profs []synth.Profile) (*trace.Scenario, error) {
	if len(profs) != 1 {
		return nil, fmt.Errorf("tracecli: bench mode takes exactly one benchmark")
	}
	s := &trace.Scenario{Threads: make([][]isa.Inst, cfg.Threads)}
	for g := range s.Threads {
		var src trace.Source
		if g == 0 && cfg.Base != 0 {
			src = synth.NewGenerator(profs[0], cfg.Seed, cfg.Base)
		} else {
			src = threadStream(cfg, profs[0], g)
		}
		s.Threads[g] = record(src, cfg.N)
	}
	return s, nil
}

// synthLatency implements ramp, sweep and burst: one benchmark's
// stream with miss-latency overrides injected on a fraction of loads,
// the override schedule varying by mode.
func synthLatency(cfg Config, profs []synth.Profile) (*trace.Scenario, error) {
	if len(profs) != 1 {
		return nil, fmt.Errorf("tracecli: %s mode takes exactly one benchmark", cfg.Mode)
	}
	s := &trace.Scenario{Threads: make([][]isa.Inst, cfg.Threads)}
	span := float64(cfg.LatHi - cfg.LatLo)
	for g := range s.Threads {
		insts := record(threadStream(cfg, profs[0], g), cfg.N)
		// The override draw stream is independent of the instruction
		// stream so changing lat knobs never perturbs the program.
		r := rng.New(cfg.Seed*0x9E3779B97F4A7C15 + uint64(g)*0x85EBCA6B + 0xFA57)
		switch cfg.Mode {
		case "ramp":
			s.Phases = append(s.Phases, trace.PhaseMark{Thread: g, Index: 0, Label: "ramp"})
			for i := range insts {
				if insts[i].Class == isa.ClassLoad && r.Float64() < cfg.TailFrac {
					insts[i].MissLatency = cfg.LatLo + uint32(span*float64(i)/float64(len(insts)))
				}
			}
		case "sweep":
			per := (cfg.N + cfg.Segments - 1) / cfg.Segments
			for seg := 0; seg < cfg.Segments; seg++ {
				lat := cfg.LatLo
				if cfg.Segments > 1 {
					lat += uint32(span * float64(seg) / float64(cfg.Segments-1))
				}
				start := seg * per
				if start >= len(insts) {
					break
				}
				end := start + per
				if end > len(insts) {
					end = len(insts)
				}
				s.Phases = append(s.Phases, trace.PhaseMark{
					Thread: g, Index: start, Label: fmt.Sprintf("level-%d", lat),
				})
				for i := start; i < end; i++ {
					if insts[i].Class == isa.ClassLoad && r.Float64() < cfg.TailFrac {
						insts[i].MissLatency = lat
					}
				}
			}
		case "burst":
			// 2*Segments alternating calm/burst windows; burst loads
			// draw a Pareto tail clamped to [lat-lo, lat-hi].
			per := (cfg.N + 2*cfg.Segments - 1) / (2 * cfg.Segments)
			for w := 0; w*per < len(insts); w++ {
				start, end := w*per, (w+1)*per
				if end > len(insts) {
					end = len(insts)
				}
				if w%2 == 0 {
					s.Phases = append(s.Phases, trace.PhaseMark{Thread: g, Index: start, Label: "calm"})
					continue
				}
				s.Phases = append(s.Phases, trace.PhaseMark{Thread: g, Index: start, Label: "burst"})
				for i := start; i < end; i++ {
					if insts[i].Class == isa.ClassLoad && r.Float64() < cfg.TailFrac {
						insts[i].MissLatency = paretoLat(r, cfg)
					}
				}
			}
		}
		s.Threads[g] = insts
	}
	return s, nil
}

// paretoLat draws one Pareto(alpha)-tailed override: scale lat-lo,
// clamped at lat-hi so a single draw cannot stall a run arbitrarily.
func paretoLat(r *rng.Rand, cfg Config) uint32 {
	u := r.Float64()
	if u <= 0 {
		return cfg.LatHi
	}
	lat := float64(cfg.LatLo) * math.Pow(1/u, 1/cfg.Alpha)
	if lat >= float64(cfg.LatHi) {
		return cfg.LatHi
	}
	return uint32(lat)
}

// synthPhase alternates two benchmarks segment by segment on each
// thread: a program whose instruction mix, footprint and branch
// behavior change abruptly at marked boundaries.
func synthPhase(cfg Config, profs []synth.Profile) (*trace.Scenario, error) {
	if len(profs) != 2 {
		return nil, fmt.Errorf("tracecli: phase mode takes exactly two benchmarks (-bench a,b)")
	}
	s := &trace.Scenario{Threads: make([][]isa.Inst, cfg.Threads)}
	for g := range s.Threads {
		seed, base := sim.ReplayStream(cfg.Seed, g)
		gens := [2]*synth.Generator{
			synth.NewGenerator(profs[0], seed, base),
			// The second program lives in its own address space half so
			// the phases do not share cache lines.
			synth.NewGenerator(profs[1], seed^0xA5A5A5A5, base+1<<33),
		}
		insts := make([]isa.Inst, 0, cfg.N)
		per := (cfg.N + cfg.Segments - 1) / cfg.Segments
		for seg := 0; seg < cfg.Segments && len(insts) < cfg.N; seg++ {
			which := seg % 2
			s.Phases = append(s.Phases, trace.PhaseMark{
				Thread: g, Index: len(insts), Label: profs[which].Name,
			})
			n := per
			if rem := cfg.N - len(insts); n > rem {
				n = rem
			}
			insts = append(insts, record(gens[which], n)...)
		}
		s.Threads[g] = insts
	}
	return s, nil
}

// synthMix records one thread per benchmark — the multiprogrammed
// scenario. Thread g's stream is bit-identical to what a live
// simulation with the same seed would synthesise for profile g in
// thread slot g (sim.ReplayStream derivation), which the e2e replay
// identity test enforces.
func synthMix(cfg Config, profs []synth.Profile) (*trace.Scenario, error) {
	if cfg.Threads != 1 && cfg.Threads != len(profs) {
		return nil, fmt.Errorf("tracecli: mix mode takes one thread per benchmark")
	}
	s := &trace.Scenario{Threads: make([][]isa.Inst, len(profs))}
	for g, prof := range profs {
		s.Threads[g] = record(threadStream(cfg, prof, g), cfg.N)
	}
	return s, nil
}
