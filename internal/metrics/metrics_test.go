package metrics

import (
	"slices"
	"testing"

	"trajmatch/internal/dtwindex"
	"trajmatch/internal/edrindex"
	"trajmatch/internal/trajtree"
)

// TestNames: the list is sorted, holds exactly the three metrics, and a
// caller cannot edit it through the returned slice.
func TestNames(t *testing.T) {
	got := Names()
	want := []string{dtwindex.MetricName, edrindex.MetricName, trajtree.MetricName}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	got[0] = "mutated"
	if Names()[0] != want[0] {
		t.Fatal("Names() shares its backing array with the caller")
	}
}

// TestKnown: every listed name is known, a typo is not, and every known
// name resolves to a spec of that name.
func TestKnown(t *testing.T) {
	for _, n := range Names() {
		if !Known(n) {
			t.Errorf("Known(%q) = false", n)
		}
		spec, err := Spec(n, nil, Config{})
		if err != nil || spec.Name != n {
			t.Errorf("Spec(%q) = %q, %v", n, spec.Name, err)
		}
	}
	for _, typo := range []string{"", "edpw", "DTW", "edr "} {
		if Known(typo) {
			t.Errorf("Known(%q) = true", typo)
		}
	}
	if _, err := Spec("edpw", nil, Config{}); err == nil {
		t.Error("Spec accepted a typo")
	}
}
