// Package cache implements a set-associative LRU cache model, used for the
// CPU baseline's last-level cache (32 MB, Table 2) and RecNMP's 1 MB
// per-rank-PE hot-entry cache (§5.1). Only hit/miss behaviour is modelled;
// latency and energy are priced by the callers.
package cache

import "fmt"

// Cache is a set-associative LRU cache over byte addresses.
type Cache struct {
	lineBytes uint64
	sets      uint64
	ways      int
	// tags[set*ways + way]; 0 means empty (tag values are shifted +1).
	tags []uint64
	// age[set*ways + way]: larger is more recent.
	age  []uint64
	tick uint64
}

// New builds a cache of sizeBytes total capacity with the given
// associativity and line size. sizeBytes must be a multiple of
// ways*lineBytes and the set count must be a power of two.
func New(sizeBytes, lineBytes uint64, ways int) (*Cache, error) {
	if lineBytes == 0 || sizeBytes == 0 || ways <= 0 {
		return nil, fmt.Errorf("cache: zero size, line, or ways")
	}
	if sizeBytes%(lineBytes*uint64(ways)) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line (%d)", sizeBytes, lineBytes*uint64(ways))
	}
	sets := sizeBytes / (lineBytes * uint64(ways))
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return &Cache{
		lineBytes: lineBytes,
		sets:      sets,
		ways:      ways,
		tags:      make([]uint64, sets*uint64(ways)),
		age:       make([]uint64, sets*uint64(ways)),
	}, nil
}

// Access touches addr, returning true on hit. On miss the line is filled,
// evicting the set's LRU way.
func (c *Cache) Access(addr uint64) bool {
	line := addr / c.lineBytes
	set := line & (c.sets - 1)
	tag := line + 1 // +1 so a zero slot can mean "empty"
	base := set * uint64(c.ways)
	c.tick++

	lruWay, lruAge := 0, c.age[base]
	for w := 0; w < c.ways; w++ {
		if c.tags[base+uint64(w)] == tag {
			c.age[base+uint64(w)] = c.tick
			return true
		}
		if c.age[base+uint64(w)] < lruAge {
			lruWay, lruAge = w, c.age[base+uint64(w)]
		}
	}
	c.tags[base+uint64(lruWay)] = tag
	c.age[base+uint64(lruWay)] = c.tick
	return false
}

// Contains reports whether addr is resident without touching LRU state.
func (c *Cache) Contains(addr uint64) bool {
	line := addr / c.lineBytes
	set := line & (c.sets - 1)
	tag := line + 1
	base := set * uint64(c.ways)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+uint64(w)] == tag {
			return true
		}
	}
	return false
}
