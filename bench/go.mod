module ft2/bench

go 1.22

require ft2 v0.0.0

replace ft2 => ../
