package detorder_test

import (
	"testing"

	"repro/tools/mmlint/internal/analysis/atest"
	"repro/tools/mmlint/internal/detorder"
)

func TestDetOrder(t *testing.T) {
	atest.Run(t, "../../testdata", detorder.Analyzer, "repro/internal/dofix", "repro/internal/core")
}
