module dbspinner/benchmark

go 1.22

require dbspinner v0.0.0

replace dbspinner => ../
