// Package sim holds the simulator's time base. Time is measured in integer
// clock cycles of the DRAM I/O clock (DDR5-4800 => 2400 MHz, i.e. one cycle
// = 1/2.4 ns); every timing model computes directly in Cycles.
package sim

// Cycle is a point in simulated time, in DRAM I/O clock cycles.
type Cycle int64
