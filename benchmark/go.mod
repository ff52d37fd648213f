module github.com/evolvefd/evolvefd/benchmark

go 1.24

require github.com/evolvefd/evolvefd v0.0.0

replace github.com/evolvefd/evolvefd => ../
