package main

import (
	"flag"
	"fmt"
	"io"

	"armbar/internal/cellcache"
)

// cacheMain implements `armbar cache [stats|gc|clear]`, the maintenance
// verbs of the persistent result cache (see README "Result cache").
// stats prints the cache's self-description; gc drops records written
// by other code versions (and, with -max-age, whole shard files not
// touched for that long); clear removes everything. The verb comes
// before the flags; any argument left after them is a usage error, so
// `armbar cache -dir D clear` clears nothing. It returns 0 on success
// and 2 on a usage error.
func cacheMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("armbar cache", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".armbar-cache", "cache directory to operate on")
	maxAge := fs.Duration("max-age", 0, "with gc: also drop shard files older than this (0 = keep all ages)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: armbar cache [stats|gc|clear] [-dir .armbar-cache] [-max-age 720h]\n")
		fs.PrintDefaults()
	}
	verb := "stats"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		verb = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "armbar cache: unexpected argument %q after the flags; the verb comes first\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	switch verb {
	case "stats", "gc", "clear":
	default:
		fmt.Fprintf(stderr, "armbar cache: unknown verb %q (want stats, gc or clear)\n", verb)
		fs.Usage()
		return 2
	}

	c := cellcache.Open(*dir)
	defer c.Close()
	switch verb {
	case "gc":
		removed, reclaimed := c.GC(*maxAge)
		fmt.Fprintf(stdout, "gc: removed %d record(s), reclaimed %d byte(s)\n", removed, reclaimed)
	case "clear":
		c.Clear()
		fmt.Fprintf(stdout, "clear: cache emptied\n")
	}
	st := c.Stats()
	fmt.Fprintf(stdout, "dir:       %s\n", st.Dir)
	fmt.Fprintf(stdout, "code hash: %s\n", st.CodeHash)
	fmt.Fprintf(stdout, "entries:   %d (%d from other code versions)\n", st.Entries, st.StaleEntries)
	fmt.Fprintf(stdout, "bytes:     %d", st.Bytes)
	if st.Entries > 0 {
		fmt.Fprintf(stdout, " (mean %d, max %d per entry)", st.MeanEntryBytes, st.MaxEntryBytes)
	}
	fmt.Fprintln(stdout)
	if st.LargeEntries > 0 {
		fmt.Fprintf(stdout, "warning:   %d entr%s over %d bytes — some generator caches whole sweeps instead of cells\n",
			st.LargeEntries, plural(st.LargeEntries, "y is", "ies are"), int64(cellcache.LargeEntryBytes))
	}
	if st.DamagedFiles > 0 {
		fmt.Fprintf(stdout, "damaged:   %d shard file(s) had a corrupt tail (cut back to the intact records)\n", st.DamagedFiles)
	}
	if st.MemoryOnly {
		fmt.Fprintf(stdout, "warning:   directory unusable; cache is memory-only\n")
	}
	return 0
}

// plural picks a suffix by count, for the stats warnings.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
