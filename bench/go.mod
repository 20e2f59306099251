module stashsim/bench

go 1.22

require stashsim v0.0.0

replace stashsim => ../
