// HHE workflow: the full Fig. 1 protocol on a reduced PASTA instance —
// the client ships its homomorphically encrypted PASTA key once, then
// sends cheap symmetric ciphertexts; the server trans-ciphers them into
// FHE ciphertexts and computes on the encrypted data without ever seeing
// the plaintext.
package main

import (
	"fmt"
	"log"

	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/pasta"
)

func main() {
	// Reduced PASTA instance (t = 2, 2 rounds) so textbook BFV depth
	// stays tractable; the circuit code is identical for full PASTA.
	params, err := hhe.NewToyParams(2, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PASTA instance:", params.Pasta)
	fmt.Printf("BFV instance:   N=%d, %d ciphertext primes, t=%d\n",
		params.BFV.N, len(params.BFV.Qs), params.BFV.T)

	// --- client setup -----------------------------------------------------
	key, err := pasta.NewRandomKey(params.Pasta)
	if err != nil {
		log.Fatal(err)
	}
	client, err := hhe.NewClient(params, key, []byte("demo-seed"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n[client] transporting homomorphically encrypted PASTA key (one-time)…")
	keys, err := client.PackedEvalKeys()
	if err != nil {
		log.Fatal(err)
	}
	server, err := hhe.NewPackedServer(params, client.Context(), keys)
	if err != nil {
		log.Fatal(err)
	}

	// --- client encrypts sensor readings symmetrically ---------------------
	reading1 := ff.Vec{1500, 2700} // e.g. two sensor values
	reading2 := ff.Vec{300, 41}
	const nonce = 99
	ct1, err := client.EncryptBlock(nonce, 0, reading1)
	if err != nil {
		log.Fatal(err)
	}
	ct2, err := client.EncryptBlock(nonce, 1, reading2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[client] sent symmetric ciphertexts (%d field elements each, no FHE expansion)\n", len(ct1))

	// --- server trans-ciphers and computes ---------------------------------
	fmt.Println("[server] homomorphically evaluating PASTA decryption…")
	fhe1, err := server.Transcipher(nonce, 0, ct1)
	if err != nil {
		log.Fatal(err)
	}
	fhe2, err := server.Transcipher(nonce, 1, ct2)
	if err != nil {
		log.Fatal(err)
	}
	// Compute on encrypted data: elementwise sum of the two readings, one
	// slot-wise addition of the packed ciphertexts.
	sum := client.Context().Add(fhe1, fhe2)
	fmt.Println("[server] computed encrypted sums without seeing any plaintext")

	// --- client decrypts the result ----------------------------------------
	result, err := client.DecryptPacked(sum, len(reading1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("[client] decrypted result:", result)

	mod := params.Pasta.Mod
	want := ff.Vec{mod.Add(reading1[0], reading2[0]), mod.Add(reading1[1], reading2[1])}
	if !result.Equal(want) {
		log.Fatalf("expected %v", want)
	}
	fmt.Println("matches the plaintext computation ✓")
}
