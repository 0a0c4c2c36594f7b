// Quickstart: build a tiny video store, run one temporal similarity query,
// print the top-k segments.
package main

import (
	"fmt"
	"log"

	"htlvideo"
)

func main() {
	// A taxonomy lets a 'woman' query partially match a 'man' object
	// through their common supertype.
	tax := htlvideo.NewTaxonomy()
	tax.MustAdd("man", "person")
	tax.MustAdd("woman", "person")
	tax.MustAdd("train", "vehicle")

	store := htlvideo.NewStore(tax, htlvideo.DefaultWeights())

	// A five-shot video: a couple, scenery, a moving train, two men, the
	// couple again.
	v := htlvideo.NewVideo(1, "demo reel", map[string]int{"shot": 2})
	v.Root.AppendChild(htlvideo.Seg().
		ObjC(1, "man", 0.9).
		ObjC(2, "woman", 0.8).
		Build())
	v.Root.AppendChild(htlvideo.Seg().
		Attr("content", htlvideo.Str("scenery")).
		Build())
	v.Root.AppendChild(htlvideo.Seg().
		ObjC(3, "train", 1.0).Prop("moving").
		Build())
	v.Root.AppendChild(htlvideo.Seg().
		ObjC(1, "man", 0.7).
		ObjC(4, "man", 0.6).
		Build())
	v.Root.AppendChild(htlvideo.Seg().
		ObjC(1, "man", 0.9).
		ObjC(2, "woman", 0.9).
		Build())
	if err := store.Add(v); err != nil {
		log.Fatal(err)
	}

	// "A man and a woman on screen, with a moving train some time later."
	const query = `
		(exists x, y . present(x) and type(x) = 'man'
		           and present(y) and type(y) = 'woman')
		and eventually (exists t . present(t) and type(t) = 'train' and moving(t))`

	// WithTopK(5): only the runs the top five segments need leave the
	// evaluation.
	res, err := store.Query(query, htlvideo.WithTopK(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query class: %v\n\n", res.Class)
	fmt.Println("top segments (similarity is partial: shot 4's two men still")
	fmt.Println("count a little against the man+woman pattern):")
	for _, r := range res.TopK(5) {
		fmt.Printf("  shots %-8v similarity %6.3f / %g\n", r.Iv, r.Sim.Act, r.Sim.Max)
	}
}
