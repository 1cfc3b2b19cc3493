module recross/benchmark

go 1.22

require recross v0.0.0

replace recross => ../
