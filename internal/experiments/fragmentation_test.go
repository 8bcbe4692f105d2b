package experiments

import (
	"reflect"
	"testing"
)

// TestFarmFragmentationDeterministic: same seed, identical report.
func TestFarmFragmentationDeterministic(t *testing.T) {
	a := FarmFragmentation(1500, 1, 7)
	b := FarmFragmentation(1500, 4, 7)
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("metrics differ between identical runs")
	}
	if a.Text != b.Text {
		t.Errorf("rendered text differs between identical runs")
	}
}
