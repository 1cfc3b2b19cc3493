package experiments

import (
	"strconv"
	"testing"
)

func TestExtDDR4(t *testing.T) {
	tb := quick[*Table](t, "ext-ddr4")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	ddr4us, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	ddr5us, _ := strconv.ParseFloat(tb.Rows[1][2], 64)
	if ddr5us >= ddr4us {
		t.Fatalf("DDR5 (%.2fus) not faster than DDR4 (%.2fus)", ddr5us, ddr4us)
	}
}
