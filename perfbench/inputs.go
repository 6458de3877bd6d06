package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/apps"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/patterns"
	"repro/internal/redist"
	"repro/internal/request"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The benchmark's inputs are plain trace documents built from the
// repository's own generators: the paper's application traces, collective
// programs and classic patterns. Everything random is drawn from the run's
// seed, so one seed always produces the same documents.

const (
	torusName = "torus-8x8"
	torusPEs  = 64
	// dragonflySpec is the 512-PE fabric compile-cold sends MoE rounds to.
	dragonflySpec = "dragonfly:8,16,4"
	dragonflyPEs  = 512
)

// input is one request the load generator can send.
type input struct {
	doc trace.Document
	// topology is the ?topology= override; empty means the daemon default.
	topology string
}

func messagesOf(set request.Set, flits int) []sim.Message {
	out := make([]sim.Message, len(set))
	for i, r := range set {
		out[i] = sim.Message{Src: int(r.Src), Dst: int(r.Dst), Flits: flits}
	}
	return out
}

func onePhase(name string, msgs []sim.Message) core.Program {
	return core.Program{Name: name, Phases: []core.Phase{{Name: name, Messages: msgs}}}
}

func appProgram(name string, phases []apps.Phase) core.Program {
	p := core.Program{Name: name}
	for _, ph := range phases {
		p.Phases = append(p.Phases, core.Phase{Name: ph.Name, Messages: ph.Messages})
	}
	return p
}

// firstRounds keeps the first n rounds of a collective program.
func firstRounds(p core.Program, n int) core.Program {
	if len(p.Phases) > n {
		p.Phases = p.Phases[:n]
	}
	return p
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// appTraces are the paper's Table 4 applications at 64 PEs.
func appTraces() []core.Program {
	return append(smallAppTraces(), appProgram("p3m-64", must(apps.P3M(64))))
}

// smallAppTraces are the applications without p3m-64, whose 450 KB body
// would put compile-cold's 99th percentile at the mercy of how many of the
// rare p3m-64 inputs one run happens to draw.
func smallAppTraces() []core.Program {
	gs := func(n int) core.Program {
		return appProgram(fmt.Sprintf("gs-%d", n), []apps.Phase{must(apps.GS(n, torusPEs))})
	}
	fft := func(n int) core.Program {
		return appProgram(fmt.Sprintf("fft-%d", n), must(apps.FFT(n, torusPEs)))
	}
	p3m := func(n int) core.Program { return appProgram(fmt.Sprintf("p3m-%d", n), must(apps.P3M(n))) }

	return []core.Program{
		gs(64), gs(1024),
		appProgram("tscf", []apps.Phase{must(apps.TSCF(torusPEs))}),
		fft(1024), fft(65536),
		p3m(32),
	}
}

// hitWorkingSet is serve-hit's 64 documents: application traces,
// collective programs and classic patterns on the 8x8 torus, from a few KB
// to the 450 KB p3m-64 trace. It does not depend on the seed.
func hitWorkingSet() []input {
	progs := appTraces()
	coll := func(name string, c collective.Collective, err error) core.Program {
		if err != nil {
			panic(err)
		}
		p := firstRounds(c.Program(apps.FlitElements), 8)
		p.Name = name
		return p
	}
	for _, e := range []int{256, 16384} {
		c, err := collective.RingAllReduce(torusPEs, e)
		progs = append(progs, coll(fmt.Sprintf("ring-allreduce-%d", e), c, err))
		c, err = collective.AllGather(torusPEs, e)
		progs = append(progs, coll(fmt.Sprintf("allgather-%d", e), c, err))
		c, err = collective.TreeAllReduce(torusPEs, e)
		progs = append(progs, coll(fmt.Sprintf("tree-allreduce-%d", e), c, err))
	}
	for _, k := range []int{2, 4, 8} {
		c, err := collective.MoEAllToAll(torusPEs, k, 1024, 7)
		progs = append(progs, coll(fmt.Sprintf("moe-k%d", k), c, err))
	}
	classic := []struct {
		name string
		set  request.Set
	}{
		{"ring", patterns.Ring(torusPEs)},
		{"linear", patterns.LinearNeighbors(torusPEs)},
		{"nn2d", patterns.NearestNeighbor2D(8, 8)},
		{"nn3d", patterns.NearestNeighbor3D(4, 4, 4)},
		{"hypercube", must(patterns.Hypercube(torusPEs))},
		{"shuffle", must(patterns.ShuffleExchange(torusPEs))},
		{"transpose", patterns.Transpose(8)},
		{"bitrev", must(patterns.BitReversal(torusPEs))},
		{"alltoall", patterns.AllToAll(torusPEs)},
	}
	for _, c := range classic {
		for _, fl := range []int{1, 8, 64, 512} {
			progs = append(progs, onePhase(fmt.Sprintf("%s-f%d", c.name, fl), messagesOf(c.set, fl)))
		}
	}
	// Fixed-seed random patterns of Table 1 sizes round the set up to 64.
	rng := rand.New(rand.NewSource(1996))
	for len(progs) < 64 {
		n := []int{100, 400, 1600, 4000}[len(progs)%4]
		progs = append(progs, onePhase(fmt.Sprintf("random-%d-%d", n, len(progs)), messagesOf(must(patterns.Random(rng, torusPEs, n)), 4)))
	}
	out := make([]input, len(progs))
	for i, p := range progs {
		out[i] = input{doc: trace.FromProgram(p, torusPEs)}
	}
	return out
}

// zipfBlock is how many consecutive serve-hit requests hold each rank in
// exact Zipf proportion.
const zipfBlock = 1000

// zipfDraws returns n popularity ranks (0-based) with Zipf (s = 1)
// frequencies, stratified: every block of zipfBlock requests holds each
// rank round(zipfBlock / ((rank+1)·H)) times, largest remainders first, in
// a seeded random order. Runs with different seeds then differ in order,
// not in mix, and every stretch of a run sees nearly the same mix.
func zipfDraws(rng *rand.Rand, ranks, n int) []int {
	h := 0.0
	for r := 1; r <= ranks; r++ {
		h += 1 / float64(r)
	}
	counts := make([]int, ranks)
	rem := make([]float64, ranks)
	left := zipfBlock
	for r := range counts {
		exact := zipfBlock / (float64(r+1) * h)
		counts[r] = int(exact)
		rem[r] = exact - float64(counts[r])
		left -= counts[r]
	}
	order := make([]int, ranks)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, r := range order[:left] {
		counts[r]++
	}
	block := make([]int, 0, zipfBlock)
	for r, c := range counts {
		for ; c > 0; c-- {
			block = append(block, r)
		}
	}
	out := make([]int, 0, n+zipfBlock)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// Popularity ranks of serve-hit. The most popular documents are the
// mid-size programs, body size closest to popularCenterKB: the median
// request then does enough decoding and encoding that scheduler jitter of
// a fraction of a millisecond does not set it. p3m-64, the largest
// document, is pinned at bigTraceRank: with 1/(12·H64) ≈ 1.8% of the
// requests it holds the slowest percent, so latency_p99_ms measures the
// big-trace hit path.
const (
	popularCenterKB = 48
	bigTraceRank    = 11
)

// hitRanks orders the working set by popularity (index 0 most popular):
// by distance of compact body size from popularCenterKB, ties by name,
// with p3m-64 moved to bigTraceRank.
func hitRanks(set []input) []int {
	dist := make([]int, len(set))
	big := -1
	for i, in := range set {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(in.doc); err != nil {
			panic(err)
		}
		dist[i] = abs(b.Len() - popularCenterKB<<10)
		if in.doc.Name == "p3m-64" {
			big = i
		}
	}
	ranks := make([]int, 0, len(set))
	for i := range set {
		if i != big {
			ranks = append(ranks, i)
		}
	}
	sort.SliceStable(ranks, func(a, b int) bool {
		da, db := dist[ranks[a]], dist[ranks[b]]
		if da != db {
			return da < db
		}
		return set[ranks[a]].doc.Name < set[ranks[b]].doc.Name
	})
	return slices.Insert(ranks, bigTraceRank, big)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// relabel applies a PE permutation to every message of a program.
func relabel(p core.Program, perm []int) core.Program {
	out := core.Program{Name: p.Name, Phases: make([]core.Phase, len(p.Phases))}
	for i, ph := range p.Phases {
		msgs := make([]sim.Message, len(ph.Messages))
		for j, m := range ph.Messages {
			m.Src, m.Dst = perm[m.Src], perm[m.Dst]
			msgs[j] = m
		}
		out.Phases[i] = core.Phase{Name: ph.Name, Messages: msgs, Dynamic: ph.Dynamic}
	}
	return out
}

// table1Sizes are the paper's Table 1 connection counts.
var table1Sizes = []int{100, 400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600, 4000}

// coldBlock is the composition of every 16 consecutive compile-cold
// inputs: 9 Table 1 random patterns, 4 Table 2 redistributions, 1
// relabelled application trace (GS, TSCF, FFT or p3m-32) and 2 dragonfly
// MoE rounds. Fixing the
// composition per block keeps the mix, and with it the quality means,
// steady from seed to seed.
var coldBlock = []byte("RRRDRRDRADRRDRMM")

// coldGen builds the compile-cold input stream of one seed. The expensive
// generators run once: application traces and a pool of redistributions
// are built up front, and each input applies a fresh seeded PE relabelling
// to one of them, so every input is a new scheduling problem.
type coldGen struct {
	seed   int64
	apps   []core.Program
	redist [][]sim.Message
}

func newColdGen(seed int64) *coldGen {
	g := &coldGen{seed: seed, apps: smallAppTraces()}
	// The redistribution pool is the same for every seed; the seed picks
	// the relabellings.
	rng := rand.New(rand.NewSource(2))
	for len(g.redist) < 16 {
		pat, _, _, err := redist.RandomRedistribution(rng, [3]int{64, 64, 64}, torusPEs)
		if err != nil {
			panic(err)
		}
		msgs := make([]sim.Message, len(pat.Reqs))
		for j, r := range pat.Reqs {
			msgs[j] = sim.Message{Src: int(r.Src), Dst: int(r.Dst), Flits: max(1, pat.Volume[r]/256)}
		}
		g.redist = append(g.redist, msgs)
	}
	return g
}

// input builds compile-cold input i. Every input is named uniquely, so its
// content key has never been seen.
func (g *coldGen) input(i int) input {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(i)))
	name := fmt.Sprintf("cold-%d-%d", g.seed, i)
	block, pos := i/len(coldBlock), i%len(coldBlock)
	kind := coldBlock[pos]
	// rank is how many inputs of the same kind precede this one in its
	// block; sizes and pool entries cycle through it, evenly.
	rank := bytes.Count(coldBlock[:pos], []byte{kind})
	switch kind {
	case 'R':
		n := table1Sizes[(block*9+rank)%len(table1Sizes)]
		set := must(patterns.Random(rng, torusPEs, n))
		return input{doc: trace.FromProgram(onePhase(name, messagesOf(set, 1+rng.Intn(8))), torusPEs)}
	case 'D':
		p := relabel(onePhase(name, g.redist[(block*4+rank)%len(g.redist)]), rng.Perm(torusPEs))
		return input{doc: trace.FromProgram(p, torusPEs)}
	case 'A':
		p := relabel(g.apps[block%len(g.apps)], rng.Perm(torusPEs))
		p.Name = name
		return input{doc: trace.FromProgram(p, torusPEs)}
	default: // 'M'
		c := must(collective.MoEAllToAll(dragonflyPEs, 2+2*(i%2), 256, uint64(rng.Int63())))
		p := c.Program(apps.FlitElements)
		p.Name = name
		return input{doc: trace.FromProgram(p, dragonflyPEs), topology: dragonflySpec}
	}
}

// warmInputs are the set-up's first compiles, one per topology
// compile-cold uses.
func warmInputs() []input {
	rng := rand.New(rand.NewSource(3))
	torus := onePhase("warm-torus", messagesOf(must(patterns.Random(rng, torusPEs, 400)), 4))
	moe := must(collective.MoEAllToAll(dragonflyPEs, 2, 256, 3)).Program(apps.FlitElements)
	moe.Name = "warm-dragonfly"
	return []input{
		{doc: trace.FromProgram(torus, torusPEs)},
		{doc: trace.FromProgram(moe, dragonflyPEs), topology: dragonflySpec},
	}
}

// herdInput is cluster-herd job j: a fresh random pattern of 200 to 800
// connections, small enough that its compile takes a few milliseconds.
func herdInput(seed int64, j int) input {
	rng := rand.New(rand.NewSource(seed*7_000_003 + int64(j)))
	n := 200 + 200*((j%4+4)%4)
	set := must(patterns.Random(rng, torusPEs, n))
	p := onePhase(fmt.Sprintf("herd-%d-%d", seed, j), messagesOf(set, 1+rng.Intn(8)))
	return input{doc: trace.FromProgram(p, torusPEs)}
}

// moeDrift is the 64-rank MoE gate state of session-drift: every step a
// few ranks move one of their top-k experts.
type moeDrift struct {
	rng   *rand.Rand
	gates [][]int
	step  int
}

const (
	moeTopK      = 2
	moeDriftRank = 3 // ranks whose gate changes per step
)

func newMoEDrift(seed int64) *moeDrift {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	d := &moeDrift{rng: rng, gates: make([][]int, torusPEs)}
	for r := range d.gates {
		for len(d.gates[r]) < moeTopK {
			d.gates[r] = d.pick(r, d.gates[r])
		}
	}
	return d
}

// pick appends one expert for rank r that it does not hold already.
func (d *moeDrift) pick(r int, held []int) []int {
	for {
		e := d.rng.Intn(torusPEs)
		if e == r || slices.Contains(held, e) {
			continue
		}
		return append(held, e)
	}
}

// next advances the gates one step and returns that step's dispatch round.
func (d *moeDrift) next() core.Phase {
	for k := 0; k < moeDriftRank; k++ {
		r := d.rng.Intn(torusPEs)
		g := d.gates[r]
		drop := d.rng.Intn(len(g))
		g = append(g[:drop:drop], g[drop+1:]...)
		d.gates[r] = d.pick(r, g)
	}
	var msgs []sim.Message
	for r, g := range d.gates {
		for _, e := range g {
			msgs = append(msgs, sim.Message{Src: r, Dst: e, Flits: 64})
		}
	}
	ph := core.Phase{Name: fmt.Sprintf("moe dispatch %d", d.step), Messages: msgs}
	d.step++
	return ph
}

// iteration returns the next MoE session document: steps consecutive
// dispatch rounds.
func (d *moeDrift) iteration(steps int) trace.Document {
	p := core.Program{Name: fmt.Sprintf("moe-drift-%d", d.step)}
	for s := 0; s < steps; s++ {
		p.Phases = append(p.Phases, d.next())
	}
	return trace.FromProgram(p, torusPEs)
}

// ringIteration is iteration t of the keep-heavy 8-round ring all-reduce;
// the chunk size cycles, the circuits never change.
func ringIteration(t int) trace.Document {
	elements := 4096 * (1 + t%4)
	c := must(collective.RingAllReduce(torusPEs, elements))
	p := firstRounds(c.Program(apps.FlitElements), 8)
	p.Name = fmt.Sprintf("ring-allreduce-8r-%d", elements)
	return trace.FromProgram(p, torusPEs)
}

// p3m64 is the P3M application trace on 64 PEs, every phase a different
// pattern.
func p3m64() trace.Document {
	return trace.FromProgram(appProgram("p3m-64", must(apps.P3M(64))), torusPEs)
}

// failedLink draws the link a session-drift /recompile masks out.
func failedLink(rng *rand.Rand) int { return rng.Intn(4 * torusPEs) }
