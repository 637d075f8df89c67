module sunosmt/bench

go 1.22

require sunosmt v0.0.0

replace sunosmt => ../
