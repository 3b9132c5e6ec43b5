module icd/bench

go 1.24

require icd v0.0.0

replace icd => ../
