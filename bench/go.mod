// The benchmark is a module of its own so that it builds from bench/ alone
// and stays out of the root module's ./... patterns. Its import path keeps
// the datamime/ prefix, which is what lets it import datamime/internal/...
module datamime/bench

go 1.22

require datamime v0.0.0

replace datamime => ../
