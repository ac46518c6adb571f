// The benchmark is a module of its own because the contract it is written
// to wants a compiled benchmark to be a package with its own build file in
// the benchmark's directory. It still needs the repository around it (the
// replace below); the module path sits under "dip/" so the program under
// test's internal packages stay importable. The price: `go test ./...` at
// the repository root does not reach it; run `go test -C bench .`.
module dip/bench

go 1.22

require dip v0.0.0

replace dip => ../
