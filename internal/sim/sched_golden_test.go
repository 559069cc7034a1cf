package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// schedTweaks are the machine shapes that stress issue selection: tiny
// issue queues keep them full and block rename, a single MSHR forces
// loads through the RetryAt replay path, and a tiny D-TLB replays loads
// and stores after every page walk.
var schedTweaks = map[string]func(*config.Config){
	"queues8": func(c *config.Config) { c.Core.IntQueue, c.Core.LSQueue = 8, 8 },
	"mshr1":   func(c *config.Config) { c.Core.MSHREntries = 1 },
	"tlb8":    func(c *config.Config) { c.Mem.TLBEntries = 8 },
}

// schedGoldenCases pin the exact output of the polling issue scheduler
// (every queued uop's producers re-checked every cycle) under the
// schedTweaks shapes. The event-driven scheduler that replaced it must
// select the same uops in the same order, so these never move.
var schedGoldenCases = []struct {
	tweak  string
	policy PolicySpec
	golden string
}{
	{tweak: "queues8", policy: SpecFlushS(30),
		golden: "ipc=1.295166666667 committed=[1380 1697 2986 1415 1349 4586 584 1545] percore=[0.2564166666666667 0.36675 0.4945833333333333 0.17741666666666667] flushes=241 wasted=9141.860000000 flushed=13686 hitlat=n=20 mean=32.5 min=23 p50=23 p90=50 max=80 overflow=0 counters=branches=2020 commit.blocked.exec=7502 commit.blocked.mem=50621 commit.blocked.queued=13637 dtlb.misses=104 fetch.blocked.flush=55149 fetch.blocked.frontq=7466 fetch.blocked.icache=20762 fetch.blocked.stall=2241 flush.resolved_hit=4 flush.resolved_miss=240 itlb.misses=6 l1d.load_hits=6178 l1d.load_misses=732 l1d.store_hits=1487 l1d.store_misses=136 l1i.hits=4855 l1i.misses=181 l2.bank_ops=1821 l2.fills=906 l2.hits=32 l2.misses=885 l2.requests=914 mem.reads=885 mispredicts=287 mshr.merges=135 policy.flushes=241 rename.blocked.queue=12069 rename.blocked.regs=649"},
	{tweak: "queues8", policy: SpecFlushNS,
		golden: "ipc=1.268333333333 committed=[1378 1767 2968 1315 1349 4329 597 1517] percore=[0.26208333333333333 0.35691666666666666 0.4731666666666667 0.17616666666666667] flushes=246 wasted=8521.590000000 flushed=13074 hitlat=n=17 mean=29.8 min=23 p50=23 p90=36 max=73 overflow=0 counters=branches=1877 commit.blocked.exec=7411 commit.blocked.mem=52407 commit.blocked.queued=12195 dtlb.misses=104 fetch.blocked.flush=56115 fetch.blocked.frontq=6265 fetch.blocked.icache=20763 fetch.blocked.stall=2894 flush.resolved_miss=248 itlb.misses=8 l1d.load_hits=5774 l1d.load_misses=688 l1d.store_hits=1443 l1d.store_misses=131 l1i.hits=4680 l1i.misses=181 l2.bank_ops=1781 l2.fills=884 l2.hits=28 l2.misses=871 l2.requests=896 mem.reads=871 mispredicts=283 mshr.merges=103 policy.flushes=246 rename.blocked.queue=10292 rename.blocked.regs=658"},
	{tweak: "queues8", policy: SpecStallS(30),
		golden: "ipc=1.148250000000 committed=[1378 1477 1870 1515 1125 4294 612 1508] percore=[0.23791666666666667 0.28208333333333335 0.45158333333333334 0.17666666666666667] flushes=0 wasted=0.000000000 flushed=0 hitlat=n=16 mean=27.6 min=23 p50=23 p90=34 max=43 overflow=0 counters=branches=1250 commit.blocked.exec=4960 commit.blocked.mem=51067 commit.blocked.queued=13313 dtlb.misses=98 fetch.blocked.frontq=13542 fetch.blocked.icache=23758 fetch.blocked.policy=50676 fetch.blocked.stall=1960 itlb.misses=5 l1d.load_hits=3365 l1d.load_misses=565 l1d.store_hits=1299 l1d.store_misses=132 l1i.hits=2393 l1i.misses=137 l2.bank_ops=1594 l2.fills=785 l2.hits=23 l2.misses=786 l2.requests=807 mem.reads=786 mispredicts=219 mshr.merges=27 policy.stall_cycles=56396 rename.blocked.queue=52294 rename.blocked.regs=1040"},
	{tweak: "queues8", policy: SpecMFLUSH,
		golden: "ipc=1.514333333333 committed=[1652 2087 4049 2089 1349 4811 609 1526] percore=[0.3115833333333333 0.5115 0.5133333333333333 0.17791666666666667] flushes=219 wasted=12492.519999999 flushed=17108 hitlat=n=18 mean=27.9 min=23 p50=24 p90=35 max=58 overflow=0 counters=branches=2609 commit.blocked.exec=8416 commit.blocked.mem=51328 commit.blocked.queued=11112 dtlb.misses=116 fetch.blocked.flush=41636 fetch.blocked.frontq=14213 fetch.blocked.icache=23159 fetch.blocked.policy=2205 fetch.blocked.stall=2278 flush.resolved_miss=219 itlb.misses=6 l1d.load_hits=7871 l1d.load_misses=842 l1d.store_hits=1723 l1d.store_misses=145 l1i.hits=5564 l1i.misses=186 l2.bank_ops=1959 l2.fills=976 l2.hits=28 l2.misses=955 l2.requests=985 mem.reads=955 mispredicts=311 mshr.full_retries=56 mshr.merges=188 policy.flushes=219 policy.stall_cycles=2822 rename.blocked.queue=22945 rename.blocked.regs=1067"},
	{tweak: "mshr1", policy: SpecFlushS(30),
		golden: "ipc=0.080416666667 committed=[51 88 186 76 206 123 134 101] percore=[0.011583333333333333 0.021833333333333333 0.027416666666666666 0.019583333333333335] flushes=147 wasted=5057.760000000 flushed=7537 hitlat=n=3 mean=23.0 min=23 p50=23 p90=23 max=23 overflow=0 counters=branches=322 commit.blocked.exec=739 commit.blocked.mem=23451 commit.blocked.queued=68999 dtlb.misses=24 fetch.blocked.flush=36102 fetch.blocked.frontq=30962 fetch.blocked.icache=22542 fetch.blocked.stall=1659 flush.resolved_miss=147 itlb.misses=5 l1d.load_hits=600 l1d.load_misses=189 l1d.store_hits=30 l1d.store_misses=70 l1i.hits=2237 l1i.misses=106 l2.bank_ops=699 l2.fills=348 l2.hits=8 l2.misses=343 l2.requests=351 mem.reads=343 mispredicts=75 mshr.full_retries=81941 mshr.merges=14 policy.flushes=147 rename.blocked.queue=34390 rename.blocked.regs=5230"},
	{tweak: "mshr1", policy: SpecFlushNS,
		golden: "ipc=0.081166666667 committed=[51 91 168 91 187 142 163 81] percore=[0.011833333333333333 0.021583333333333333 0.027416666666666666 0.02033333333333333] flushes=146 wasted=4805.920000000 flushed=7237 hitlat=n=1 mean=23.0 min=23 p50=23 p90=23 max=23 overflow=0 counters=branches=319 commit.blocked.exec=670 commit.blocked.mem=24791 commit.blocked.queued=66148 dtlb.misses=24 fetch.blocked.flush=36831 fetch.blocked.frontq=29431 fetch.blocked.icache=23550 fetch.blocked.stall=1858 flush.resolved_miss=144 itlb.misses=6 l1d.load_hits=613 l1d.load_misses=194 l1d.store_hits=34 l1d.store_misses=74 l1i.hits=2089 l1i.misses=107 l2.bank_ops=702 l2.fills=348 l2.hits=5 l2.misses=349 l2.requests=354 mem.reads=349 mispredicts=75 mshr.full_retries=80844 mshr.merges=21 policy.flushes=146 rename.blocked.queue=36583 rename.blocked.regs=3497"},
	{tweak: "mshr1", policy: SpecStallS(30),
		golden: "ipc=0.085250000000 committed=[26 213 179 99 92 206 29 179] percore=[0.019916666666666666 0.023166666666666665 0.024833333333333332 0.017333333333333333] flushes=0 wasted=0.000000000 flushed=0 hitlat=n=3 mean=23.0 min=23 p50=23 p90=23 max=23 overflow=0 counters=branches=103 commit.blocked.exec=375 commit.blocked.mem=23984 commit.blocked.queued=69599 dtlb.misses=23 fetch.blocked.frontq=41040 fetch.blocked.icache=21858 fetch.blocked.policy=30235 fetch.blocked.stall=1604 itlb.misses=5 l1d.load_hits=151 l1d.load_misses=198 l1d.store_hits=44 l1d.store_misses=71 l1i.hits=361 l1i.misses=87 l2.bank_ops=664 l2.fills=332 l2.hits=5 l2.misses=329 l2.requests=333 mem.reads=329 mispredicts=38 mshr.full_retries=92113 mshr.merges=22 policy.stall_cycles=38942 rename.blocked.queue=69272 rename.blocked.regs=13251"},
	{tweak: "mshr1", policy: SpecMFLUSH,
		golden: "ipc=0.084833333333 committed=[50 132 257 77 151 128 134 89] percore=[0.015166666666666667 0.027833333333333335 0.02325 0.018583333333333334] flushes=156 wasted=5812.730000000 flushed=8641 hitlat=n=1 mean=23.0 min=23 p50=23 p90=23 max=23 overflow=0 counters=branches=393 commit.blocked.exec=779 commit.blocked.mem=23536 commit.blocked.queued=66213 dtlb.misses=26 fetch.blocked.flush=29542 fetch.blocked.frontq=37016 fetch.blocked.icache=21659 fetch.blocked.policy=1106 fetch.blocked.stall=1681 flush.resolved_miss=155 itlb.misses=5 l1d.load_hits=721 l1d.load_misses=193 l1d.store_hits=35 l1d.store_misses=69 l1i.hits=2371 l1i.misses=109 l2.bank_ops=705 l2.fills=353 l2.hits=5 l2.misses=347 l2.requests=352 mem.reads=347 mispredicts=84 mshr.full_retries=84944 mshr.merges=19 policy.flushes=156 policy.stall_cycles=1722 rename.blocked.queue=42883 rename.blocked.regs=3687"},
	{tweak: "tlb8", policy: SpecFlushS(30),
		golden: "ipc=0.989083333333 committed=[1148 1510 1531 987 1258 3327 582 1526] percore=[0.2215 0.20983333333333334 0.38208333333333333 0.17566666666666667] flushes=194 wasted=10904.840000000 flushed=15287 hitlat=n=18 mean=28.5 min=23 p50=23 p90=38 max=48 overflow=0 counters=branches=1807 commit.blocked.exec=4071 commit.blocked.mem=31726 commit.blocked.queued=39882 dtlb.misses=791 fetch.blocked.flush=44107 fetch.blocked.frontq=18126 fetch.blocked.icache=20736 fetch.blocked.stall=3663 flush.resolved_hit=1 flush.resolved_miss=197 itlb.misses=11 l1d.load_hits=6147 l1d.load_misses=648 l1d.store_hits=1110 l1d.store_misses=107 l1i.hits=4644 l1i.misses=184 l2.bank_ops=1736 l2.fills=870 l2.hits=26 l2.misses=844 l2.requests=852 mem.reads=844 mispredicts=237 mshr.full_retries=13 mshr.merges=87 policy.flushes=194 rename.blocked.queue=3027 rename.blocked.regs=16096"},
	{tweak: "tlb8", policy: SpecFlushNS,
		golden: "ipc=0.957500000000 committed=[745 1506 1510 1116 1196 3309 582 1526] percore=[0.18758333333333332 0.21883333333333332 0.3754166666666667 0.17566666666666667] flushes=200 wasted=10287.620000000 flushed=14428 hitlat=n=19 mean=31.2 min=23 p50=23 p90=52 max=66 overflow=0 counters=branches=1696 commit.blocked.exec=3971 commit.blocked.mem=33070 commit.blocked.queued=38908 dtlb.misses=724 fetch.blocked.flush=46252 fetch.blocked.frontq=13576 fetch.blocked.icache=23345 fetch.blocked.stall=3808 flush.resolved_miss=202 itlb.misses=11 l1d.load_hits=5809 l1d.load_misses=636 l1d.store_hits=1075 l1d.store_misses=106 l1i.hits=4546 l1i.misses=202 l2.bank_ops=1728 l2.fills=863 l2.hits=36 l2.misses=833 l2.requests=857 mem.reads=833 mispredicts=246 mshr.full_retries=10 mshr.merges=87 policy.flushes=200 rename.blocked.queue=3231 rename.blocked.regs=11636"},
	{tweak: "tlb8", policy: SpecStallS(30),
		golden: "ipc=1.290166666667 committed=[1764 1524 2207 1932 1308 3889 568 2290] percore=[0.274 0.34491666666666665 0.4330833333333333 0.23816666666666667] flushes=0 wasted=0.000000000 flushed=0 hitlat=n=15 mean=29.4 min=23 p50=23 p90=37 max=42 overflow=0 counters=branches=1432 commit.blocked.exec=3556 commit.blocked.mem=38775 commit.blocked.queued=32809 dtlb.misses=539 fetch.blocked.frontq=13370 fetch.blocked.icache=32441 fetch.blocked.policy=40639 fetch.blocked.stall=3609 itlb.misses=11 l1d.load_hits=4042 l1d.load_misses=650 l1d.store_hits=1457 l1d.store_misses=130 l1i.hits=2769 l1i.misses=194 l2.bank_ops=1863 l2.fills=937 l2.hits=27 l2.misses=901 l2.requests=925 mem.reads=901 mispredicts=229 mshr.full_retries=42 mshr.merges=49 policy.stall_cycles=50196 rename.blocked.queue=2996 rename.blocked.regs=31605"},
	{tweak: "tlb8", policy: SpecMFLUSH,
		golden: "ipc=1.107750000000 committed=[901 1486 1930 1196 1349 3567 574 2290] percore=[0.19891666666666666 0.2605 0.4096666666666667 0.23866666666666667] flushes=180 wasted=11538.250000000 flushed=15816 hitlat=n=20 mean=26.4 min=23 p50=23 p90=36 max=43 overflow=0 counters=branches=2040 commit.blocked.exec=4390 commit.blocked.mem=27686 commit.blocked.queued=44034 dtlb.misses=820 fetch.blocked.flush=33018 fetch.blocked.frontq=24397 fetch.blocked.icache=23881 fetch.blocked.policy=1177 fetch.blocked.stall=3347 flush.resolved_miss=182 itlb.misses=10 l1d.load_hits=6684 l1d.load_misses=644 l1d.store_hits=1288 l1d.store_misses=108 l1i.hits=5000 l1i.misses=200 l2.bank_ops=1734 l2.fills=867 l2.hits=37 l2.misses=832 l2.requests=861 mem.reads=832 mispredicts=269 mshr.full_retries=29 mshr.merges=91 policy.flushes=180 policy.stall_cycles=1746 rename.blocked.queue=2014 rename.blocked.regs=24734"},
}

// TestSchedulerGoldens runs every scheduler golden solo, and each tweak's
// four policies once more as one gang, against the pinned fingerprints.
func TestSchedulerGoldens(t *testing.T) {
	w, _ := workload.ByName("8W3")
	opts := make([]Options, len(schedGoldenCases))
	for i, c := range schedGoldenCases {
		opts[i] = Options{Workload: w, Policy: c.policy, Seed: 5, Warmup: 4000, Cycles: 12000,
			Tweak: schedTweaks[c.tweak]}
		res, err := Run(opts[i])
		if err != nil {
			t.Fatalf("%s/%s: %v", c.tweak, c.policy, err)
		}
		if fp := fingerprint(res); fp != c.golden {
			t.Errorf("%s/%s: output drifted from the polling scheduler's golden\n got: %s\nwant: %s",
				c.tweak, c.policy, fp, c.golden)
		}
	}
	for start := 0; start < len(opts); start += 4 {
		results, err := RunGang(opts[start : start+4])
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			c := schedGoldenCases[start+i]
			if fp := fingerprint(res); fp != c.golden {
				t.Errorf("%s/%s in gang: output drifted from golden\n got: %s\nwant: %s",
					c.tweak, c.policy, fp, c.golden)
			}
		}
	}
}
