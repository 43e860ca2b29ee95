package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

func TestSubSeedStreamsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for shard := 0; shard < 64; shard++ {
			s := SubSeed(base, shard)
			if seen[s] {
				t.Fatalf("SubSeed(%d,%d) = %d collides", base, shard, s)
			}
			seen[s] = true
		}
	}
	if SubSeed(42, 7) != SubSeed(42, 7) {
		t.Fatal("SubSeed is not a pure function")
	}
}

// replicateInput builds one replication of a small identity-model run.
func replicateInput(rep int, seed int64) (RunInput, error) {
	g := netgraph.LineNetwork(6, 1)
	model := interference.Identity{Links: g.NumLinks()}
	path, _ := netgraph.ShortestPath(g, 0, 5)
	proc, err := inject.StochasticAtRate(model, []inject.Generator{
		{Choices: []inject.PathChoice{{Path: path, P: 0.5}}},
	}, 0.4)
	if err != nil {
		return RunInput{}, err
	}
	return RunInput{Model: model, Process: proc, Protocol: &echoProto{links: g.NumLinks()}}, nil
}

// echoProto transmits every held packet's next hop each slot — enough
// protocol to exercise the full Run loop deterministically.
type echoProto struct {
	links int
	held  []heldPkt
}

type heldPkt struct {
	id   int64
	path []int
	hop  int
}

func (p *echoProto) Name() string { return "echo" }
func (p *echoProto) Inject(t int64, pkts []inject.Packet) {
	for _, ip := range pkts {
		path := make([]int, len(ip.Path))
		for i, e := range ip.Path {
			path[i] = int(e)
		}
		p.held = append(p.held, heldPkt{id: ip.ID, path: path})
	}
}
func (p *echoProto) Slot(t int64, rng *rand.Rand) []Transmission {
	var out []Transmission
	for _, h := range p.held {
		out = append(out, Transmission{Link: h.path[h.hop], PacketID: h.id})
	}
	return out
}
func (p *echoProto) Feedback(t int64, tx []Transmission, success []bool) {
	for i, w := range tx {
		if !success[i] {
			continue
		}
		for j := range p.held {
			if p.held[j].id == w.PacketID {
				p.held[j].hop++
				if p.held[j].hop == len(p.held[j].path) {
					p.held = append(p.held[:j], p.held[j+1:]...)
				}
				break
			}
		}
	}
}

func TestReplicateBitIdenticalAcrossPoolSizes(t *testing.T) {
	cfg := Config{Slots: 4000, Seed: 99}
	var reference *ReplicateResult
	for _, parallel := range []int{1, 8, 0} {
		c := cfg
		c.Parallel = parallel
		res, err := Replicate(context.Background(), c, 6, replicateInput)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if reference == nil {
			reference = res
			continue
		}
		if !reflect.DeepEqual(res.Runs, reference.Runs) {
			t.Errorf("parallel=%d produced different replications:\n%+v\nvs serial\n%+v",
				parallel, res.Runs, reference.Runs)
		}
		if res.StableAll != reference.StableAll {
			t.Errorf("parallel=%d verdict %v, serial %v", parallel, res.StableAll, reference.StableAll)
		}
	}
}

func TestReplicateRejectsNonPositiveReps(t *testing.T) {
	if _, err := Replicate(context.Background(), Config{Slots: 10, Seed: 1}, 0, replicateInput); err == nil {
		t.Fatal("reps=0 accepted")
	}
}
