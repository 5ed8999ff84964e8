package cellcache

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// A child writer process is this test binary run with writerDirEnv set
// to the cache directory and writerFirstEnv to the key it starts at.
const (
	writerDirEnv   = "CELLCACHE_WRITER_DIR"
	writerFirstEnv = "CELLCACHE_WRITER_FIRST"
	writerKeys     = 200
	writerScope    = "multiproc#0"
	// writerReport is the line a writer prints once its first Puts
	// are in the cache.
	writerReport = "first puts done"
)

var writerHash = testHash("multiproc")

// writerValue is key i's value, the same in every process. Keys 10 to
// 19 hold 1 MB each: a writer that starts at key 0 reports after key
// 9, so a kill that follows the report lands in those appends.
func writerValue(i int) []byte {
	n := 16 + i
	if i >= 10 && i < 20 {
		n = 1 << 20
	}
	return bytes.Repeat([]byte{byte(i + 1)}, n)
}

// runWriter puts every key into the cache at dir, starting at first,
// and reports on stdout after its first ten Puts. It builds the values
// first, so that after the report its time goes to the appends.
func runWriter(dir string, first int) {
	vals := make([][]byte, writerKeys)
	for i := range vals {
		vals[i] = writerValue(i)
	}
	c := openWithHash(dir, writerHash)
	for n := 0; n < writerKeys; n++ {
		i := (first + n) % writerKeys
		c.Put(writerScope, i, vals[i])
		if n == 9 {
			fmt.Println(writerReport)
		}
	}
	c.Close()
}

// startWriter starts a writer process on dir, with its stdout piped to
// the returned reader.
func startWriter(t *testing.T, dir string, first int) (*exec.Cmd, *bufio.Reader) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestConcurrentWriterProcesses$")
	cmd.Env = append(os.Environ(), writerDirEnv+"="+dir, writerFirstEnv+"="+strconv.Itoa(first))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, bufio.NewReader(out)
}

// checkHits opens dir and fails on any hit whose value is not its
// key's; it returns the number of hits and of torn shard files.
func checkHits(t *testing.T, dir string) (hits, torn int) {
	t.Helper()
	c := openWithHash(dir, writerHash)
	defer c.Close()
	torn = c.Stats().DamagedFiles
	for i := 0; i < writerKeys; i++ {
		got, ok := c.Get(writerScope, i)
		if !ok {
			continue
		}
		if !bytes.Equal(got, writerValue(i)) {
			t.Fatalf("key %d hit with a wrong %d-byte value", i, len(got))
		}
		hits++
	}
	return hits, torn
}

// TestConcurrentWriterProcesses runs three writer processes on one
// cache directory and kills one with SIGKILL once it has put its first
// keys, so it may die inside an append. The surviving records must
// hold exactly their keys' values: damage may show only as misses.
// The kill seldom lands inside an append, so the test then tears one
// shard itself, as such a kill leaves it. One more writer re-puts
// every key, and the next Open must hit all of them in undamaged
// shards, which needs each torn shard to heal.
func TestConcurrentWriterProcesses(t *testing.T) {
	if dir := os.Getenv(writerDirEnv); dir != "" {
		first, _ := strconv.Atoi(os.Getenv(writerFirstEnv))
		runWriter(dir, first)
		return
	}
	dir := t.TempDir()
	var cmds []*exec.Cmd
	var outs []*bufio.Reader
	for w := 0; w < 3; w++ {
		cmd, out := startWriter(t, dir, w*writerKeys/3)
		cmds, outs = append(cmds, cmd), append(outs, out)
	}
	// Reap every writer even when the test fails first.
	defer func() {
		for _, cmd := range cmds {
			if cmd.ProcessState == nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
	}()
	line, err := outs[0].ReadString('\n')
	if err != nil || line != writerReport+"\n" {
		t.Fatalf("writer 0 reported %q, %v; want %q", line, err, writerReport)
	}
	if err := cmds[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for w, cmd := range cmds {
		io.Copy(io.Discard, outs[w])
		err := cmd.Wait()
		if w > 0 && err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	hits, torn := checkHits(t, dir)
	t.Logf("%d of %d keys hit after the kill, %d shard file(s) torn", hits, writerKeys, torn)
	k := keyFor(writerHash, writerScope, 10)
	rec := encodeRecord(writerHash, k, writerValue(10))
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%02x.bin", shardOf(k))), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(rec[:len(rec)/2])
	f.Close()

	cmd, out := startWriter(t, dir, 0)
	cmds = append(cmds, cmd)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("re-put writer: %v", err)
	}
	if hits, torn := checkHits(t, dir); hits != writerKeys || torn != 0 {
		t.Fatalf("%d of %d keys hit and %d shard file(s) torn after every key was re-put", hits, writerKeys, torn)
	}
}
