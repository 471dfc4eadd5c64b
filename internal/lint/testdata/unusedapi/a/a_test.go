package a

func useTestOnly() int { return TestOnly() }
