module retrasyn/bench

go 1.22

require retrasyn v0.0.0

replace retrasyn => ../
