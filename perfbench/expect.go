package main

// expectedFingerprint pins the outputs of train-analog and mann-memory at
// the default seed and length: loss, accuracies, soft-read sum and the
// exact crossbar pulse and TCAM search counts. A change that alters any of
// them breaks the match.
var expectedFingerprint = map[string]string{
	"train-analog": "loss=1382.1071246702506 accuracy=0.92833333333333334 pulses=9524561",
	"mann-memory":  "xmann_accuracy=0.99950000000000006 tcam_accuracy=0.99891666666666667 read_sum=188425.30315090949 pulses=269172158 searches=12000",
}

// campaignHashes pins the output of the quick R2 and R6 campaigns at each
// campaign seed (the first 16 hex digits of its SHA-256).
var campaignHashes = map[uint64]string{
	1: "08862849af8e3e74",
	2: "93b6972ece2959fa",
	3: "5d822f7a7e413f55",
	4: "4cce058e87e937d6",
}
