package main

import (
	"fmt"
	"math/rand"
	"sort"

	"agentloc/internal/core"
	"agentloc/internal/ids"
)

// population is the generator's own record of the agents: their ids, the
// node each one is at, and the capability tags it registered with. Agents
// are split between the workers: worker w owns own[w], and only the owner
// moves, advertises or locates an agent, so the owner's record of its node
// is exact.
type population struct {
	agents []ids.AgentID
	home   []uint8 // index into nodeIDs
	own    [][]int // per worker: owned agent indices, popularity order
	tags   [][]string
	assign []core.Assignment // the IAgent each agent last reported to
}

// Capability vocabulary. Stable tags are set at registration and never
// change, so every Discover answer can be checked exactly; the volatile
// tag is what Advertise rewrites.
const (
	stableTags   = 32
	tagsPerAgent = 2
	volatileTags = 8
)

// skewedTag draws a stable tag index with density falling as 1/sqrt(k):
// tag 0 is about ten times as common as tag 31.
func skewedTag(rng *rand.Rand) int {
	u := rng.Float64()
	return int(u * u * stableTags)
}

// drawTags draws tagsPerAgent distinct stable tags, sorted.
func drawTags(rng *rand.Rand) []string {
	set := map[int]bool{}
	for len(set) < tagsPerAgent {
		set[skewedTag(rng)] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, stableTag(k))
	}
	sort.Strings(out)
	return out
}

func stableTag(k int) string   { return fmt.Sprintf("cap%02d", k) }
func volatileTag(k int) string { return fmt.Sprintf("mood%d", k) }

// newPopulation draws n agents from the seed. Ids are fixed; home nodes,
// ownership order and (with withTags) tags come from the seed.
func newPopulation(n, workers int, seed int64, withTags bool) *population {
	rng := rand.New(rand.NewSource(seed))
	p := &population{
		agents: make([]ids.AgentID, n),
		home:   make([]uint8, n),
		own:    make([][]int, workers),
		assign: make([]core.Assignment, n),
	}
	for i := range p.agents {
		p.agents[i] = ids.AgentID(fmt.Sprintf("agent-%07d", i))
		p.home[i] = uint8(rng.Intn(numNodes))
	}
	for k, i := range rng.Perm(n) {
		p.own[k%workers] = append(p.own[k%workers], i)
	}
	if withTags {
		p.tags = make([][]string, n)
		for i := range p.tags {
			p.tags[i] = drawTags(rng)
		}
	}
	return p
}

// hasTags reports whether agent i's stable tags include every tag in q.
func (p *population) hasTags(i int, q []string) bool {
	for _, t := range q {
		found := false
		for _, have := range p.tags[i] {
			if have == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// query is one Discover: two stable tags, and the answer the mechanism must
// give — the discoverLimit smallest agent ids holding both.
type query struct {
	caps   []string
	expect []ids.AgentID
}

const discoverLimit = 16

// newQueries draws the seeded Discover query set with skewed tag pairs.
func newQueries(p *population, count int, seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	qs := make([]query, 0, count)
	for len(qs) < count {
		a, b := skewedTag(rng), skewedTag(rng)
		if a == b {
			continue
		}
		q := query{caps: []string{stableTag(a), stableTag(b)}}
		for i := range p.agents { // agents are in id order
			if p.hasTags(i, q.caps) {
				q.expect = append(q.expect, p.agents[i])
				if len(q.expect) == discoverLimit {
					break
				}
			}
		}
		qs = append(qs, q)
	}
	return qs
}

// checkDiscover reports whether a Discover answer is exactly q.expect, in
// order.
func checkDiscover(q query, got []core.Match) bool {
	if len(got) != len(q.expect) {
		return false
	}
	for i, m := range got {
		if m.Agent != q.expect[i] {
			return false
		}
	}
	return true
}
