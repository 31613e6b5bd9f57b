module github.com/quantilejoins/qjoin/bench

go 1.24

require github.com/quantilejoins/qjoin v0.0.0

replace github.com/quantilejoins/qjoin => ../
