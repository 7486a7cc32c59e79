// Command blobctl is an interactive shell over a fresh converged-storage
// platform: it reads commands from stdin, one per line, and executes them
// against the blob store. Useful for exploring the Section III primitive
// set by hand.
//
// Commands:
//
//	create KEY                 register an empty blob
//	write  KEY OFFSET TEXT...  write text at an offset
//	read   KEY OFFSET LEN      read and print a range
//	size   KEY                 print the blob size
//	trunc  KEY SIZE            truncate the blob
//	rm     KEY                 delete the blob
//	ls     [PREFIX]            scan the namespace
//	time                       print the session's virtual time
//	help                       print this list
//	quit                       exit
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
)

func main() {
	platform := core.New(core.Options{})
	ctx := platform.NewContext()
	store := platform.Blob()

	in := bufio.NewScanner(os.Stdin)
	interactive := isTerminalHint()
	if interactive {
		fmt.Println("blobctl: converged blob store shell (type 'help')")
	}
	for {
		if interactive {
			fmt.Print("> ")
		}
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := execute(os.Stdout, store, ctx, line); err != nil {
			if err == io.EOF {
				return
			}
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

// isTerminalHint avoids prompts when input is piped; stdin being a pipe is
// approximated by Stat mode (good enough for a demo shell).
func isTerminalHint() bool {
	info, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

func execute(w io.Writer, store storage.BlobStore, ctx *storage.Context, line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Fprintln(w, "create write read size trunc rm ls time quit")
		return nil
	case "create":
		if len(args) != 1 {
			return fmt.Errorf("usage: create KEY")
		}
		return store.CreateBlob(ctx, args[0])
	case "write":
		if len(args) < 3 {
			return fmt.Errorf("usage: write KEY OFFSET TEXT...")
		}
		off, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("offset: %w", err)
		}
		data := strings.Join(args[2:], " ")
		n, err := store.WriteBlob(ctx, args[0], off, []byte(data))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d bytes\n", n)
		return nil
	case "read":
		if len(args) != 3 {
			return fmt.Errorf("usage: read KEY OFFSET LEN")
		}
		off, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil || off < 0 {
			return fmt.Errorf("offset: %v", args[1])
		}
		length, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil || length < 0 {
			return fmt.Errorf("length: %v", args[2])
		}
		// LEN is whatever the user typed: size the buffer by what the blob
		// holds past OFFSET (a read at EOF is short anyway), never by LEN.
		size, err := store.BlobSize(ctx, args[0])
		if err != nil {
			return err
		}
		buf := make([]byte, min(length, max(size-off, 0)))
		n, err := store.ReadBlob(ctx, args[0], off, buf)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%q\n", buf[:n])
		return nil
	case "size":
		if len(args) != 1 {
			return fmt.Errorf("usage: size KEY")
		}
		size, err := store.BlobSize(ctx, args[0])
		if err != nil {
			return err
		}
		fmt.Fprintln(w, size)
		return nil
	case "trunc":
		if len(args) != 2 {
			return fmt.Errorf("usage: trunc KEY SIZE")
		}
		size, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("size: %w", err)
		}
		return store.TruncateBlob(ctx, args[0], size)
	case "rm":
		if len(args) != 1 {
			return fmt.Errorf("usage: rm KEY")
		}
		return store.DeleteBlob(ctx, args[0])
	case "ls":
		prefix := ""
		if len(args) > 0 {
			prefix = args[0]
		}
		infos, err := store.Scan(ctx, prefix)
		if err != nil {
			return err
		}
		for _, info := range infos {
			fmt.Fprintf(w, "%10d  %s\n", info.Size, info.Key)
		}
		fmt.Fprintf(w, "(%d blobs)\n", len(infos))
		return nil
	case "time":
		fmt.Fprintln(w, ctx.Clock.Now())
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}
