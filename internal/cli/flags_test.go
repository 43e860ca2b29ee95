package cli

import (
	"flag"
	"testing"
)

func TestRegisterServerFlags(t *testing.T) {
	o := ServerOptions{Addr: ":8080", QueueDepth: 64}
	fs := flag.NewFlagSet("dynschedd", flag.ContinueOnError)
	RegisterServerFlags(fs, &o)
	err := fs.Parse([]string{
		"-addr", "127.0.0.1:9999", "-workers", "3", "-queue", "7",
		"-cache", "11", "-cache-dir", "/tmp/dd", "-progress-every", "500",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ServerOptions{
		Addr: "127.0.0.1:9999", Workers: 3, QueueDepth: 7,
		CacheEntries: 11, CacheDir: "/tmp/dd", ProgressEvery: 500,
	}
	if o != want {
		t.Fatalf("parsed options %+v, want %+v", o, want)
	}
	// Unset flags keep the caller's defaults.
	o2 := ServerOptions{Addr: ":8080", QueueDepth: 64}
	fs2 := flag.NewFlagSet("dynschedd", flag.ContinueOnError)
	RegisterServerFlags(fs2, &o2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o2.Addr != ":8080" || o2.QueueDepth != 64 {
		t.Fatalf("defaults not preserved: %+v", o2)
	}
}
