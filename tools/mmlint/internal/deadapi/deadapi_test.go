package deadapi_test

import (
	"testing"

	"repro/tools/mmlint/internal/analysis/atest"
	"repro/tools/mmlint/internal/deadapi"
)

func TestDeadAPI(t *testing.T) {
	atest.Run(t, "../../testdata", deadapi.Analyzer,
		"repro/internal/dafix",
		"repro/cmd/dause", // fixture: the non-test caller outside internal/
	)
}
