module aggview/bench

go 1.24

require aggview v0.0.0

replace aggview => ../
