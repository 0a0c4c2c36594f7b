module htlvideo/bench

go 1.22

require htlvideo v0.0.0

replace htlvideo => ../
