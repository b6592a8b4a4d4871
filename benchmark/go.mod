module presto/benchmark

go 1.22

require presto v0.0.0

replace presto => ../
