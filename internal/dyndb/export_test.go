package dyndb

// TailBound reports the tail's length in words and the bound
// compaction keeps it within after every mutation.
func (db *DB) TailBound() (tail, bound int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.tail), 2*db.live + compactSlack
}
