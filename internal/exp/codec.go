package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// codec is the scratch space of one per-point encode or decode: a byte
// buffer, a JSON encoder bound to it and a second buffer for indented
// output. Every key, cache entry, JSONL record and SSE frame of a
// campaign goes through one, taken from codecs and returned when its
// bytes have been written, hashed or decoded — so a point's JSON costs
// the encoder's own work and no buffer of its own.
//
// An Encoder emits exactly json.Marshal's bytes plus a newline (HTML
// escaping on, no indent), which is what every caller below relies on.
type codec struct {
	buf    bytes.Buffer
	enc    *json.Encoder // writes into buf
	indent bytes.Buffer
}

var codecs = sync.Pool{New: func() any {
	c := new(codec)
	c.enc = json.NewEncoder(&c.buf)
	return c
}}

// getCodec takes an empty codec from the pool.
func getCodec() *codec {
	c := codecs.Get().(*codec)
	c.buf.Reset()
	c.indent.Reset()
	return c
}

// release returns c to the pool. Nothing c holds may be used after.
func (c *codec) release() { codecs.Put(c) }

// encode appends json.Marshal(v) to buf, without the Encoder's newline.
func (c *codec) encode(v any) error {
	if err := c.enc.Encode(v); err != nil {
		return err
	}
	c.buf.Truncate(c.buf.Len() - 1)
	return nil
}

// readFile appends the named file's contents to buf.
func (c *codec) readFile(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = c.buf.ReadFrom(f)
	return err
}

// WriteFramedJSON writes prefix, json.Marshal(v) and suffix to w in one
// Write, from a pooled buffer: the framing of a server-sent event is
// "event: <name>\ndata: " and "\n\n".
func WriteFramedJSON(w io.Writer, prefix string, v any, suffix string) error {
	c := getCodec()
	defer c.release()
	c.buf.WriteString(prefix)
	if err := c.encode(v); err != nil {
		return fmt.Errorf("exp: encode json: %w", err)
	}
	c.buf.WriteString(suffix)
	_, err := w.Write(c.buf.Bytes())
	return err
}
