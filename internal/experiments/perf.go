package experiments

import "fmt"

// sweep measures the six architectures at each point and collects
// speedups over the CPU baseline of the same point. Each point owns its
// systems, so the points run concurrently and the table does not depend
// on the schedule.
func sweep[T any](cfg Config, points []T, configure func(Config, T) Config,
	label func(T) string) (*Table, error) {
	point := func(p T) (map[string]float64, error) {
		stats, err := kaggle(configure(cfg, p)).measureArches()
		if err != nil {
			return nil, err
		}
		return Speedups(stats, "cpu")
	}
	speedups := make([]map[string]float64, len(points))
	err := each(len(points), func(i int) (err error) {
		if speedups[i], err = point(points[i]); err != nil {
			err = fmt.Errorf("point %s: %w", label(points[i]), err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	t := &Table{Cols: append([]string{"point"}, ArchNames...)}
	for i, p := range points {
		cells := []any{label(p)}
		for _, a := range ArchNames {
			cells = append(cells, f2(speedups[i][a]))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig9 sweeps the embedding vector length (paper: 16..256 elements, batch
// 32) and reports each architecture's speedup over the CPU baseline at the
// same vector length.
func Fig9(cfg Config) (*Table, error) {
	vecLens := []int{16, 32, 64, 128, 256}
	t, err := sweep(cfg, vecLens,
		func(c Config, v int) Config { c.VecLen = v; return c },
		func(v int) string { return fmt.Sprintf("veclen=%d", v) })
	if err != nil {
		return nil, err
	}
	t.Title = "Fig. 9 — speedup over CPU vs embedding vector length"
	t.Note = fmt.Sprintf("batch=%d pooling=%d ranks=%d; paper geomeans: ReCross 15.5x CPU, 2.5x TRiM-G, 1.8x TRiM-B",
		cfg.Batch, cfg.Pooling, cfg.Ranks)
	return t, nil
}

// Fig10 sweeps the batch size (paper: 1..128, vector length 64).
func Fig10(cfg Config) (*Table, error) {
	batches := []int{1, 4, 16, 32, 64, 128}
	if cfg.Batch <= 8 { // quick mode: stay small
		batches = []int{1, 2, 4, 8}
	}
	t, err := sweep(cfg, batches,
		func(c Config, b int) Config { c.Batch = b; return c },
		func(b int) string { return fmt.Sprintf("batch=%d", b) })
	if err != nil {
		return nil, err
	}
	t.Title = "Fig. 10 — speedup over CPU vs batch size"
	t.Note = fmt.Sprintf("veclen=%d pooling=%d ranks=%d; paper: speedups grow slightly with batch size",
		cfg.VecLen, cfg.Pooling, cfg.Ranks)
	return t, nil
}

// Fig11 sweeps the rank count (paper: 2, 4, 8).
func Fig11(cfg Config) (*Table, error) {
	ranks := []int{2, 4, 8}
	t, err := sweep(cfg, ranks,
		func(c Config, r int) Config { c.Ranks = r; return c },
		func(r int) string { return fmt.Sprintf("ranks=%d", r) })
	if err != nil {
		return nil, err
	}
	t.Title = "Fig. 11 — speedup over CPU vs rank count"
	t.Note = "paper: ReCross scales well with ranks (designed inside the rank)"
	return t, nil
}
