package experiments

import "testing"

func TestExtDDR4(t *testing.T) {
	tb := quick[*Table](t, "ext-ddr4")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	ddr4us, ddr5us := num(t, tb, 0, 2), num(t, tb, 1, 2)
	if ddr5us <= 0 || ddr5us >= ddr4us {
		t.Fatalf("DDR5 (%.2fus) not faster than DDR4 (%.2fus)", ddr5us, ddr4us)
	}
}
