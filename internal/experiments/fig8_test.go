package experiments

import (
	"strings"
	"testing"
	"time"
)

func smallFig8(fixed bool) Fig8Config {
	return Fig8Config{
		Hosts:          4,
		ClientsPerHost: 2,
		Files:          100,
		Duration:       5 * time.Second,
		Think:          2 * time.Millisecond,
		Fixed:          fixed,
	}
}

// colShare returns each column's share of the total selection mass.
func colShare(m map[string]map[string]float64, hosts []string) map[string]float64 {
	total := 0.0
	col := map[string]float64{}
	for _, r := range hosts {
		for _, c := range hosts {
			v := m[r][c]
			col[c] += v
			total += v
		}
	}
	for c := range col {
		col[c] /= total
	}
	return col
}

func TestFig8BuggySelectionIsSkewed(t *testing.T) {
	res, err := RunFig8(smallFig8(false))
	if err != nil {
		t.Fatal(err)
	}
	shares := colShare(res.SelectFreq, res.Hosts)
	max, min := 0.0, 1.0
	for _, s := range shares {
		if s > max {
			max = s
		}
		if s < min {
			min = s
		}
	}
	// With the bug, the top-priority DataNode absorbs far more than its
	// fair share (0.25 for 4 hosts).
	if max < 0.35 {
		t.Errorf("buggy selection not skewed: shares = %v", shares)
	}

	// 8e: replica locations remain near-uniform regardless of the bug.
	repl := colShare(res.ReplicaFreq, res.Hosts)
	for h, s := range repl {
		if s < 0.15 || s > 0.35 {
			t.Errorf("replica placement skewed at %s: %v", h, repl)
		}
	}

	// 8d: clients read files uniformly (low CV).
	for h, s := range res.ReadCV {
		if s.Files < 10 {
			t.Errorf("client %s read only %d files", h, s.Files)
		}
	}

	// 8g: preference must be strongly asymmetric somewhere (host always
	// preferred over another).
	sawExtreme := false
	for _, a := range res.Hosts {
		for _, b := range res.Hosts {
			if v := res.PrefFreq[a][b]; v > 0.97 {
				sawExtreme = true
			}
		}
	}
	if !sawExtreme {
		t.Error("8g: no near-certain preference despite static ordering")
	}

	if res.Q7BaggageBytes <= 0 || res.Q7BaggageBytes > 400 {
		t.Errorf("Q7 baggage = %d bytes, want small positive", res.Q7BaggageBytes)
	}

	out := res.Render()
	for _, want := range []string{"8a", "8b", "8c", "8d", "8e", "8f", "8g", "Q7 baggage"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig8FixedSelectionIsBalanced(t *testing.T) {
	res, err := RunFig8(smallFig8(true))
	if err != nil {
		t.Fatal(err)
	}
	shares := colShare(res.SelectFreq, res.Hosts)
	for h, s := range shares {
		if s < 0.10 || s > 0.45 {
			t.Errorf("fixed selection skewed at %s: %v", h, shares)
		}
	}
}
