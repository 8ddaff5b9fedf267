package report

// JSONEncodes reports how many exports have been encoded to bytes in
// this process.
func JSONEncodes() int64 { return jsonEncodes.Load() }
