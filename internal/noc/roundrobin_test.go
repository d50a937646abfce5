package noc

import "testing"

func cand(port int, pri bool) Candidate {
	return Candidate{Port: port, Pkt: &Packet{ID: int64(port + 1), Priority: pri, Kind: Read, Beats: 8, Flits: 4}}
}

// grant runs one allocation round the way Router.allocate does and
// returns the winning port, or -1.
func grant(a Allocator, cands []Candidate) int {
	w := a.Select(cands, 0)
	if w < 0 {
		return -1
	}
	a.OnScheduled(cands[w].Pkt, 0)
	return cands[w].Port
}

func TestRoundRobinRotates(t *testing.T) {
	rr := &RoundRobin{}
	cands := []Candidate{cand(0, false), cand(2, false), cand(4, false)}
	var grants []int
	for i := 0; i < 6; i++ {
		p := grant(rr, cands)
		if p < 0 {
			t.Fatal("round robin must grant")
		}
		grants = append(grants, p)
	}
	want := []int{0, 2, 4, 0, 2, 4}
	for i := range want {
		if grants[i] != want[i] {
			t.Fatalf("grants = %v, want %v", grants, want)
		}
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	for _, rr := range []*RoundRobin{{}, {PriorityFirst: true}} {
		if rr.Select(nil, 0) != -1 {
			t.Fatalf("%+v: empty candidate set must return -1", *rr)
		}
	}
}

func TestRoundRobinSkipsAbsentPorts(t *testing.T) {
	rr := &RoundRobin{}
	if p := grant(rr, []Candidate{cand(3, false)}); p != 3 {
		t.Fatalf("granted port %d, want 3", p)
	}
	// The pointer moved past port 3: port 4 now precedes port 2.
	if p := grant(rr, []Candidate{cand(2, false), cand(4, false)}); p != 4 {
		t.Fatalf("granted port %d, want 4", p)
	}
}

func TestPriorityFirstPrefersPriority(t *testing.T) {
	pf := &RoundRobin{PriorityFirst: true}
	cands := []Candidate{cand(0, false), cand(1, true), cand(2, false)}
	if w := pf.Select(cands, 0); w != 1 {
		t.Fatalf("Select = %d, want the priority candidate (1)", w)
	}
}

func TestPriorityFirstFallsBackToRR(t *testing.T) {
	pf := &RoundRobin{PriorityFirst: true}
	cands := []Candidate{cand(1, false), cand(3, false)}
	if w := pf.Select(cands, 0); w != 0 {
		t.Fatalf("Select = %d, want 0 (RR from port 0)", w)
	}
}

func TestPriorityFirstTieBreaksWithinPriorityClass(t *testing.T) {
	pf := &RoundRobin{PriorityFirst: true}
	cands := []Candidate{cand(2, true), cand(4, true), cand(0, false)}
	w := pf.Select(cands, 0)
	if !cands[w].Pkt.Priority {
		t.Fatal("winner must be a priority packet")
	}
	if cands[w].Port != 2 {
		t.Fatalf("RR within priority class should pick port 2, got %d", cands[w].Port)
	}
}

// TestPriorityFirstRotatesPastPriorityPort pins the mixed-set order: with
// the pointer past a priority port, the grant goes to the next priority
// port in rotation, not to the nearer best-effort one.
func TestPriorityFirstRotatesPastPriorityPort(t *testing.T) {
	pf := &RoundRobin{PriorityFirst: true}
	if p := grant(pf, []Candidate{cand(1, true)}); p != 1 {
		t.Fatalf("granted port %d, want 1", p)
	}
	// Pointer at 2: best-effort port 2 is nearest, priority port 1 is
	// behind the pointer, priority port 4 is next in rotation.
	if p := grant(pf, []Candidate{cand(1, true), cand(2, false), cand(4, true)}); p != 4 {
		t.Fatalf("granted port %d, want 4", p)
	}
	if p := grant(pf, []Candidate{cand(1, true), cand(2, false)}); p != 1 {
		t.Fatalf("granted port %d, want 1 (rotation wraps)", p)
	}
}

// TestOutputPortDefaultRoundRobin pins that a fresh router's output ports
// each start with their own plain round-robin policy.
func TestOutputPortDefaultRoundRobin(t *testing.T) {
	r := newRouter(Coord{}, 1, 4)
	seen := map[*RoundRobin]bool{}
	for p := range r.Out {
		rr, ok := r.Out[p].alloc.(*RoundRobin)
		if !ok || rr.PriorityFirst {
			t.Fatalf("port %d default policy = %#v, want plain *RoundRobin", p, r.Out[p].alloc)
		}
		if seen[rr] {
			t.Fatalf("port %d shares its round-robin state with another port", p)
		}
		seen[rr] = true
	}
}
