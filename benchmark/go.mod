module adaptivelink/benchmark

go 1.24

require adaptivelink v0.0.0

replace adaptivelink => ../
