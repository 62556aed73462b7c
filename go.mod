module repro

go 1.23
