// Command sandfsd is an interactive shell over a running sandserve's view
// filesystem: it mounts the server's views over the network dataplane
// and lets you browse and read them with ls / cat / stat / read commands
// — the FUSE-mount experience of the paper, without the kernel.
//
// Usage:
//
//	sandserve &                 # the engine, on 127.0.0.1:7468
//	sandfsd                     # shell over it
//	sandfsd -addr host:7468     # shell over another server
//
// Commands:
//
//	ls [dir]        list views
//	stat PATH       show view size and metadata
//	cat PATH        decode and summarize a view's payload
//	read PATH N     hex-dump the first N bytes of a view
//	quit
//
// The server's metrics are on its own -metrics endpoint.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"sand/internal/core"
	"sand/internal/frame"
	"sand/internal/metrics"
	"sand/internal/vfs"
	"sand/internal/viewserver"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7468", "sandserve address to mount")
	flag.Parse()

	fs, err := viewserver.Dial("tcp", *addr, viewserver.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Shutdown()
	fmt.Printf("sandfsd: mounted %s. Views follow the Table 1 scheme:\n", *addr)
	fmt.Println("  /<task>/<video>.mp4   /<task>/<video>/frame<i>   /<task>/<video>/frame<i>/aug<d>   /<task>/<epoch>/<iter>/view")

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "quit", "exit", "q":
			return
		case "ls":
			dir := "/"
			if len(fields) > 1 {
				dir = fields[1]
			}
			entries, err := fs.Readdir(dir)
			if err != nil {
				fmt.Println("ls:", err)
				break
			}
			for _, e := range entries {
				fmt.Println(" ", e)
			}
		case "stat", "xattr":
			if len(fields) < 2 {
				fmt.Println("usage: stat PATH")
				break
			}
			withFD(fs, fields[1], func(fd int) {
				size, _ := fs.Size(fd)
				fmt.Printf("  size: %s\n", metrics.Bytes(float64(size)))
				names, _ := fs.Listxattr(fd)
				for _, n := range names {
					v, _ := fs.Getxattr(fd, n)
					fmt.Printf("  %s = %s\n", n, v)
				}
			})
		case "cat":
			if len(fields) < 2 {
				fmt.Println("usage: cat PATH")
				break
			}
			withFD(fs, fields[1], func(fd int) {
				data, err := fs.ReadAll(fd)
				if err != nil {
					fmt.Println("cat:", err)
					return
				}
				describe(fields[1], data)
			})
		case "read":
			if len(fields) < 3 {
				fmt.Println("usage: read PATH N")
				break
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n <= 0 {
				fmt.Println("read: bad byte count")
				break
			}
			withFD(fs, fields[1], func(fd int) {
				buf := make([]byte, n)
				got, err := fs.Read(fd, buf)
				if err != nil && got == 0 {
					fmt.Println("read:", err)
					return
				}
				fmt.Printf("  % x\n", buf[:got])
			})
		default:
			fmt.Println("commands: ls [dir] | stat PATH | cat PATH | read PATH N | quit")
		}
		fmt.Print("> ")
	}
}

func withFD(fs vfs.Mount, path string, fn func(fd int)) {
	fd, err := fs.Open(path)
	if err != nil {
		fmt.Println("open:", err)
		return
	}
	defer fs.Close(fd)
	fn(fd)
}

// describe decodes a view payload according to its path kind.
func describe(path string, data []byte) {
	p, err := vfs.ParsePath(path)
	if err != nil {
		fmt.Printf("  %d bytes\n", len(data))
		return
	}
	switch p.Kind {
	case vfs.KindBatchView:
		batch, err := core.DecodeBatch(data)
		if err != nil {
			fmt.Println("  not a batch:", err)
			return
		}
		w, h, c := batch.Clips[0].Geometry()
		fmt.Printf("  batch: %d clips x %d frames @ %dx%dx%d, labels=%v\n",
			batch.Len(), batch.Clips[0].Len(), w, h, c, batch.Labels)
	case vfs.KindFrame, vfs.KindAugFrame:
		f, err := frame.DecodeFrame(data)
		if err != nil {
			fmt.Println("  not a frame:", err)
			return
		}
		fmt.Printf("  frame %d: %dx%dx%d, pts=%dms\n", f.Index, f.W, f.H, f.C, f.PTS)
	case vfs.KindVideo:
		fmt.Printf("  encoded video container, %s\n", metrics.Bytes(float64(len(data))))
	}
}
