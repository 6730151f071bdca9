module darpanet/bench

go 1.22

require darpanet v0.0.0

replace darpanet => ../
